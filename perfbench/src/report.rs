//! Metric catalogue, provenance and the two output lines.
//!
//! Every run prints a report line (all metrics the workload measured,
//! each labelled `host`, `simulated`, `simulator-cost` or `computed`,
//! plus provenance, the per-phase op ledger and notes), then the result
//! line: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::ledger::Ledger;
use crate::trace::Tracer;
use crate::Opts;

/// How a number was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Measured on this host running the real kernels.
    Host,
    /// An output of the A100 cost model (deterministic per seed).
    Simulated,
    /// Host wall time spent running the simulator.
    SimulatorCost,
    /// Derived from shapes, not measured (op and byte counts).
    Computed,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Simulated => "simulated",
            Kind::SimulatorCost => "simulator-cost",
            Kind::Computed => "computed",
        }
    }
}

/// End-to-end metrics: `(name, unit)`. Every workload reports every one
/// (the per-workload meaning is in the README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("episode_ms", "ms"),
    ("requests_s", "1/s"),
    ("prefill_tok_s", "1/s"),
    ("decode_tok_s", "1/s"),
    ("ttft_ms.p50", "ms"),
    ("itl_us.p50", "us"),
    ("itl_us.p99", "us"),
    ("recover_ms.p50", "ms"),
    ("kv_bytes_per_token", "B"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not touch
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("attention.prefill.calls", "count"),
    ("attention.prefill.busy_ms", "ms"),
    ("attention.prefill.ns_per_pair", "ns"),
    ("attention.prefill.wall_share", "ratio"),
    ("attention.decode.calls", "count"),
    ("attention.decode.busy_ms", "ms"),
    ("attention.decode.ns_per_ctx_token", "ns"),
    ("attention.decode.wall_share", "ratio"),
    ("attention.rel_err", "ratio"),
    ("kvcache.tile.hits", "count"),
    ("kvcache.tile.misses", "count"),
    ("kvcache.tile.hit_ratio", "ratio"),
    ("kvcache.flushes", "count"),
    ("kvcache.resident_bytes", "B"),
    ("kvcache.compression_ratio", "ratio"),
    ("kvcache.wal.calls", "count"),
    ("kvcache.wal.busy_ms", "ms"),
    ("kvcache.wal.bytes", "B"),
    ("kvcache.wal.records", "count"),
    ("kvcache.checkpoint.calls", "count"),
    ("kvcache.checkpoint.busy_ms", "ms"),
    ("kvcache.checkpoint.bytes", "B"),
    ("kvcache.recover.calls", "count"),
    ("kvcache.recover.busy_ms", "ms"),
    ("kvcache.recover.replayed_records", "count"),
    ("kvcache.recover.clean_ratio", "ratio"),
    ("runtime.workers", "count"),
    ("runtime.tasks_run", "count"),
    ("runtime.tasks_stolen", "count"),
    ("runtime.helper_tasks", "count"),
    ("runtime.total_task_ns", "ns"),
    ("runtime.max_queue_depth", "count"),
    ("runtime.max_active_workers", "count"),
    ("runtime.utilisation", "ratio"),
    ("probe.gemm_i8.ns_per_call", "ns"),
    ("probe.gemm_i8.ops", "count"),
    ("probe.gemm_i8.bytes", "B"),
    ("probe.dot_i8.ns_per_call", "ns"),
    ("probe.dot_i8.ops", "count"),
    ("probe.dot_i8.bytes", "B"),
    ("probe.sas_exp.ns_per_call", "ns"),
    ("probe.sas_exp.ops", "count"),
    ("probe.sas_exp.bytes", "B"),
    ("probe.encode_i8.ns_per_call", "ns"),
    ("probe.encode_i8.ops", "count"),
    ("probe.encode_i8.bytes", "B"),
    ("probe.progressive.ns_per_call", "ns"),
    ("probe.progressive.ops", "count"),
    ("probe.progressive.bytes", "B"),
    ("baselines.flash_f32.prefill_ms", "ms"),
    ("baselines.turbo.prefill_ms", "ms"),
    ("baselines.kivi.decode_us", "us"),
    ("baselines.gear.decode_us", "us"),
    ("baselines.fp16.decode_us", "us"),
    ("baselines.turbo.decode_us", "us"),
    ("gpusim.sched.steps", "count"),
    ("gpusim.sched.busy_ms", "ms"),
    ("gpusim.fleet.busy_ms", "ms"),
    ("gpusim.fleet.slo_violation_rate", "ratio"),
    ("gpusim.shard.busy_ms", "ms"),
    ("gpusim.shard.migrated_tokens", "count"),
    ("gpusim.fp16.tok_s", "1/s"),
    ("gpusim.fp16.goodput_rps", "1/s"),
    ("trace.layer_sum_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_ms.attention", "ms"),
    ("trace.self_ms.kvcache", "ms"),
    ("trace.self_ms.client", "ms"),
    ("trace.self_ms.baselines", "ms"),
    ("trace.self_ms.tensor", "ms"),
    ("trace.self_ms.softmax", "ms"),
    ("trace.self_ms.quant", "ms"),
    ("trace.self_ms.gpusim", "ms"),
    ("health.layer_group_commit", "count"),
    ("health.layer_group_rows", "count"),
    ("health.dequant_cache_hit", "count"),
    ("health.dequant_cache_miss", "count"),
    ("health.dequant_cache_evict", "count"),
    ("health.wal_replay", "count"),
    ("health.layer_wal_replayed_records", "count"),
    ("health.request_rejected", "count"),
    ("health.slo_request_ok", "count"),
    ("health.slo_violation", "count"),
    ("health.chaos_burst", "count"),
    ("health.replica_killed", "count"),
    ("health.shard_killed", "count"),
    ("health.shard_resharded", "count"),
];

/// Layers whose self time the traced run reports.
pub const TRACED_LAYERS: [&str; 8] = [
    "attention",
    "kvcache",
    "client",
    "baselines",
    "tensor",
    "softmax",
    "quant",
    "gpusim",
];

/// Accepted band of `trace.layer_sum_ratio`.
pub const LAYER_SUM_BAND: (f64, f64) = (0.9, 1.1);

#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
}

/// Everything one run measured.
pub struct Outcome {
    pub metrics: BTreeMap<String, Metric>,
    pub ledger: Ledger,
    pub notes: Json,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn new(trace: bool) -> Self {
        Self {
            metrics: BTreeMap::new(),
            ledger: Ledger::default(),
            notes: Json::obj(),
            tracer: Tracer::new(trace),
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, kind: Kind) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit, kind });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// The result line's metrics; a metric that is missing, not finite
    /// or (end-to-end) not positive fails a `report` check.
    fn result_metrics(&mut self, trace: bool) -> Json {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut out = Json::obj();
        for &(name, unit) in list {
            let value = match self.get(name) {
                Some(v) => v,
                // A layer this workload does not exercise.
                None if trace => 0.0,
                None => f64::NAN,
            };
            let ok = value.is_finite() && (trace || value > 0.0);
            self.ledger.check(crate::ledger::Phase::Report, ok, || {
                format!("metric {name} is missing or not a positive finite number: {value}")
            });
            out.set(name, Json::obj().with("value", value).with("unit", unit));
        }
        out
    }

    /// The full report line: provenance, every metric with its label,
    /// the op ledger and the notes.
    pub fn report_line(&self, opts: &Opts) -> String {
        let mut metrics = Json::obj();
        for (name, m) in &self.metrics {
            metrics.set(
                name,
                Json::obj()
                    .with("value", m.value)
                    .with("unit", m.unit)
                    .with("kind", m.kind.label()),
            );
        }
        Json::obj()
            .with("report", "turbo-perfbench")
            .with("workload", opts.workload.name())
            .with("provenance", provenance(opts))
            .with("metrics", metrics)
            .with("ops", self.ledger.to_json())
            .with("notes", self.notes.clone())
            .render()
    }

    /// The result line the benchmark contract reads (printed last).
    pub fn result_line(&mut self, trace: bool) -> String {
        let metrics = self.result_metrics(trace);
        let failed = self.ledger.failed();
        Json::obj()
            .with("correct", failed == 0)
            .with("attempted", self.ledger.attempted().max(1))
            .with("failed", failed)
            .with("metrics", metrics)
            .render()
    }
}

/// Seed, machine and dispatch settings every result carries.
pub fn provenance(opts: &Opts) -> Json {
    let env = |k: &str| std::env::var(k).map_or(Json::Null, Json::from);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("trace", opts.trace)
        .with("size", format!("{:?}", opts.size).to_lowercase())
        .with("nproc", nproc)
        .with("pool_workers", turbo_runtime::global().workers())
        .with("simd_level", format!("{:?}", turbo_tensor::simd_level()))
        .with("TURBO_SIMD", env("TURBO_SIMD"))
        .with("TURBO_RUNTIME_THREADS", env(turbo_runtime::ENV_WORKERS))
        .with("arch", std::env::consts::ARCH)
        .with("os", std::env::consts::OS)
        .with(
            "clock",
            "host metrics: std::time::Instant wall time on this machine; \
             simulated metrics: A100-80GB cost model",
        )
}

/// Per-layer metrics the traced run derives from its spans: self time
/// per layer and the layer-sum ratio over `traced_wall_ns`, both per
/// traced episode.
pub fn put_trace_metrics(out: &mut Outcome, traced_wall_ns: u64, episodes: usize) {
    let per_episode = |ns: u64| ns as f64 / 1e6 / episodes.max(1) as f64;
    let layers = out.tracer.layer_self_ns();
    let sum: u64 = layers.values().sum();
    for layer in TRACED_LAYERS {
        let ns = layers.get(layer).copied().unwrap_or(0);
        out.put(
            &format!("trace.self_ms.{layer}"),
            per_episode(ns),
            "ms",
            Kind::Host,
        );
    }
    let ratio = crate::stats::ratio(sum as f64, traced_wall_ns as f64);
    out.put("trace.layer_sum_ratio", ratio, "ratio", Kind::Host);
    let mut self_ns = Json::obj();
    for (layer, ns) in &layers {
        self_ns.set(layer, *ns);
    }
    out.notes.set(
        "trace",
        Json::obj()
            .with("spans", out.tracer.spans().len())
            .with("traced_episodes", episodes)
            .with("traced_wall_ns", traced_wall_ns)
            .with("layer_self_ns_sum", sum)
            .with("layer_self_ns", self_ns),
    );
    let (lo, hi) = LAYER_SUM_BAND;
    out.ledger.check(
        crate::ledger::Phase::Trace,
        (lo..=hi).contains(&ratio),
        || format!("trace.layer_sum_ratio {ratio:.4} outside [{lo}, {hi}]"),
    );
}

/// Copies the `HealthStats` counters into the outcome under their
/// `health_events!` names (every counter into the notes, the catalogued
/// ones into the metrics), divided by `episodes`.
pub fn put_health(out: &mut Outcome, health: &turbo_robust::HealthStats, episodes: usize) {
    let mut all = Json::obj();
    for (name, count) in health.report() {
        if count > 0 {
            all.set(name, count);
        }
        let key = format!("health.{name}");
        if PER_LAYER.iter().any(|&(n, _)| n == key) {
            out.put(
                &key,
                count as f64 / episodes.max(1) as f64,
                "count",
                Kind::Host,
            );
        }
    }
    out.notes.set("health_counters_total", all);
}

/// Copies a runtime snapshot delta into the outcome, per episode, with
/// utilisation = task time / (workers × wall).
pub fn put_runtime(
    out: &mut Outcome,
    before: turbo_runtime::RuntimeSnapshot,
    after: turbo_runtime::RuntimeSnapshot,
    wall_ns: u64,
    episodes: usize,
) {
    let e = episodes.max(1) as f64;
    let per = |a: u64, b: u64| a.saturating_sub(b) as f64 / e;
    out.put("runtime.workers", after.workers as f64, "count", Kind::Host);
    out.put(
        "runtime.tasks_run",
        per(after.tasks_run, before.tasks_run),
        "count",
        Kind::Host,
    );
    out.put(
        "runtime.tasks_stolen",
        per(after.tasks_stolen, before.tasks_stolen),
        "count",
        Kind::Host,
    );
    out.put(
        "runtime.helper_tasks",
        per(after.helper_tasks, before.helper_tasks),
        "count",
        Kind::Host,
    );
    let task_ns = after.total_task_ns.saturating_sub(before.total_task_ns);
    out.put(
        "runtime.total_task_ns",
        task_ns as f64 / e,
        "ns",
        Kind::Host,
    );
    out.put(
        "runtime.max_queue_depth",
        after.max_queue_depth as f64,
        "count",
        Kind::Host,
    );
    out.put(
        "runtime.max_active_workers",
        after.max_active_workers as f64,
        "count",
        Kind::Host,
    );
    let util = crate::stats::ratio(task_ns as f64, after.workers as f64 * wall_ns as f64);
    out.put("runtime.utilisation", util, "ratio", Kind::Host);
    out.notes.set(
        "runtime_utilisation_base",
        Json::obj()
            .with("task_ns", task_ns)
            .with("workers", after.workers)
            .with("wall_ns", wall_ns),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}

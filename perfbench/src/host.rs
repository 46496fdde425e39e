//! Shared harness of the two real-kernel workloads: the closed episode
//! loop (untraced episodes, or untraced and traced ones alternating in a
//! traced run), the durable serving path of one request, and the
//! end-to-end and per-layer metrics derived from what each episode
//! measured.

use std::sync::Arc;
use std::time::Instant;

use turbo_attention::TurboAttention;
use turbo_kvcache::persist::serialize_head_cache;
use turbo_kvcache::{DurableLayerSet, KvCacheConfig, LayerKvCache, NeverCheckpoint};
use turbo_robust::HealthStats;
use turbo_tensor::{relative_error, Matrix};

use crate::json::Json;
use crate::ledger::Phase;
use crate::report::{self, Kind, Outcome};
use crate::stats::{median, percentile, ratio};
use crate::Opts;

/// Largest accepted relative error of a sampled prefill cell (the last
/// query rows of one head) vs exact f32 attention.
pub const PREFILL_REL_ERR_BOUND: f64 = 0.1;
/// Largest accepted relative error of a sampled decode cell vs exact
/// f32 attention over the whole context: the attention crate's INT4
/// decode tolerance (0.2) with room for a maximum over many cells.
pub const DECODE_REL_ERR_BOUND: f64 = 0.3;

/// Counts one episode produced, summed over its requests.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Query × key pairs the prefill calls computed (causal).
    pub prefill_pairs: f64,
    /// Σ over decode calls of query heads × context tokens attended.
    pub decode_ctx_tokens: f64,
    pub tile_hits: u64,
    pub tile_misses: u64,
    /// Progressive-compression flushes during decode.
    pub flushes: u64,
    pub resident_bytes: u64,
    pub total_bytes: u64,
    pub fp16_bytes: u64,
    /// Tokens the measured caches hold (for bytes per token).
    pub cached_tokens: u64,
    pub wal_calls: u64,
    pub wal_bytes: u64,
    pub wal_records: u64,
    pub checkpoint_calls: u64,
    pub checkpoint_bytes: u64,
    pub recover_calls: u64,
    pub replayed_records: u64,
    pub clean_recovers: u64,
}

impl Counters {
    /// Adds the tile-cache, flush and memory accounting of every cell of
    /// `set`, whose caches held `blocks_before` resident blocks before
    /// decode started.
    pub fn add_cells(&mut self, set: &DurableLayerSet, blocks_before: u64) {
        let mut blocks = 0u64;
        for l in 0..set.num_layers() {
            for head in set.layer(l).iter() {
                let t = head.tile_cache_stats();
                self.tile_hits += t.hits;
                self.tile_misses += t.misses;
                let m = head.memory_stats();
                self.resident_bytes += m.resident_bytes as u64;
                self.total_bytes += m.total_bytes() as u64;
                self.fp16_bytes += m.fp16_bytes as u64;
                blocks += head.resident_blocks().len() as u64;
            }
        }
        self.flushes += blocks.saturating_sub(blocks_before);
        self.cached_tokens += set.tokens() as u64;
    }
}

/// Resident blocks over every cell of a set of layers.
pub fn resident_blocks(layers: &[turbo_kvcache::LayerKvCache]) -> u64 {
    layers
        .iter()
        .flat_map(|l| l.iter())
        .map(|h| h.resident_blocks().len() as u64)
        .sum()
}

/// What one episode measured.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    pub wall_ns: u64,
    pub requests: u64,
    pub prompt_tokens: u64,
    pub decode_tokens: u64,
    /// Per request: prompt arrival to the last layer's prefill output.
    pub ttft_ns: Vec<u64>,
    /// Per request: prompt tokens over its TTFT, tokens per second.
    pub prefill_rates: Vec<f64>,
    /// Per decode step: all layers plus the step's group commit.
    pub itl_ns: Vec<u64>,
    pub recover_ns: Vec<u64>,
    /// Largest relative error of the sampled cells vs exact f32.
    pub rel_err: f64,
    pub counters: Counters,
}

pub struct EpisodeLog<E> {
    pub untraced: Vec<E>,
    pub traced: Vec<E>,
    /// Wall time of each untraced and each traced episode, checks included.
    pub untraced_walls: Vec<f64>,
    pub traced_walls: Vec<f64>,
    /// Wall time of the traced episodes plus the traced probe phase.
    pub traced_wall_ns: u64,
}

impl<E> EpisodeLog<E> {
    pub fn episodes(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }

    /// Traced over untraced median episode wall time, recorded with its
    /// base in the notes.
    pub fn put_overhead_ratio(&self, out: &mut Outcome) {
        let (traced, untraced) = (median(&self.traced_walls), median(&self.untraced_walls));
        out.put(
            "trace.overhead_ratio",
            ratio(traced, untraced),
            "ratio",
            Kind::Host,
        );
        out.notes.set(
            "trace_overhead_base",
            Json::obj()
                .with("traced_median_ns", traced)
                .with("untraced_median_ns", untraced)
                .with("traced_episodes", self.traced_walls.len())
                .with("untraced_episodes", self.untraced_walls.len()),
        );
    }
}

/// Runs episodes for the run's budget. Untraced runs trace nothing;
/// traced runs alternate untraced and traced episodes (at least one of
/// each), so the overhead ratio compares like with like.
pub fn run_episodes<E>(
    opts: &Opts,
    out: &mut Outcome,
    mut episode: impl FnMut(&mut Outcome, u32) -> E,
) -> EpisodeLog<E> {
    let before = turbo_runtime::global().snapshot();
    let min = if opts.trace { 2 } else { 1 };
    let mut log = EpisodeLog {
        untraced: Vec::new(),
        traced: Vec::new(),
        untraced_walls: Vec::new(),
        traced_walls: Vec::new(),
        traced_wall_ns: 0,
    };
    let loop_start = Instant::now();
    crate::run_for(opts.budget(), min, |n| {
        let traced = opts.trace && n % 2 == 1;
        out.tracer.set_enabled(traced);
        let t = Instant::now();
        let e = episode(out, n as u32);
        let wall = t.elapsed().as_nanos() as u64;
        if traced {
            log.traced_wall_ns += wall;
            log.traced.push(e);
            log.traced_walls.push(wall as f64);
        } else {
            log.untraced.push(e);
            log.untraced_walls.push(wall as f64);
        }
    });
    out.tracer.set_enabled(opts.trace);
    report::put_runtime(
        out,
        before,
        turbo_runtime::global().snapshot(),
        loop_start.elapsed().as_nanos() as u64,
        log.episodes(),
    );
    log
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn all(eps: &[Episode], f: impl Fn(&Episode) -> &Vec<u64>) -> Vec<f64> {
    eps.iter()
        .flat_map(|e| f(e).iter().map(|&x| x as f64))
        .collect()
}

/// End-to-end metrics from untraced episodes. Rates are medians of
/// per-episode (per-request for prefill) rates, so one slow episode on
/// a shared host does not move them.
pub fn put_end_to_end(out: &mut Outcome, eps: &[Episode], setup_s: f64) {
    let per_episode = |f: &dyn Fn(&Episode) -> f64| median(&eps.iter().map(f).collect::<Vec<_>>());
    let ttft = all(eps, |e| &e.ttft_ns);
    let itl = all(eps, |e| &e.itl_ns);
    let recover = all(eps, |e| &e.recover_ns);
    let secs = |ns: u64| ns as f64 / 1e9;
    out.put("setup_s", setup_s, "s", Kind::Host);
    out.put(
        "episode_ms",
        per_episode(&|e| ms(e.wall_ns)),
        "ms",
        Kind::Host,
    );
    let requests_s = per_episode(&|e| ratio(e.requests as f64, secs(e.wall_ns)));
    out.put("requests_s", requests_s, "1/s", Kind::Host);
    let prefill_rates: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.prefill_rates.iter().copied())
        .collect();
    out.put("prefill_tok_s", median(&prefill_rates), "1/s", Kind::Host);
    let decode_tok_s = per_episode(&|e| ratio(e.decode_tokens as f64, secs(e.itl_ns.iter().sum())));
    out.put("decode_tok_s", decode_tok_s, "1/s", Kind::Host);
    out.put(
        "ttft_ms.p50",
        percentile(&ttft, 0.5) / 1e6,
        "ms",
        Kind::Host,
    );
    out.put(
        "ttft_ms.p75",
        percentile(&ttft, 0.75) / 1e6,
        "ms",
        Kind::Host,
    );
    out.put("itl_us.p50", percentile(&itl, 0.5) / 1e3, "us", Kind::Host);
    out.put("itl_us.p99", percentile(&itl, 0.99) / 1e3, "us", Kind::Host);
    out.put(
        "recover_ms.p50",
        percentile(&recover, 0.5) / 1e6,
        "ms",
        Kind::Host,
    );
    let c = |f: &dyn Fn(&Counters) -> u64| eps.iter().map(|e| f(&e.counters)).sum::<u64>() as f64;
    out.put(
        "kv_bytes_per_token",
        ratio(c(&|c| c.total_bytes), c(&|c| c.cached_tokens)),
        "B",
        Kind::Host,
    );
    let rel = eps.iter().map(|e| e.rel_err).fold(0.0, f64::max);
    out.put("rel_err", rel, "ratio", Kind::Host);
    let walls: Vec<Json> = eps.iter().map(|e| Json::from(ms(e.wall_ns))).collect();
    out.notes.set("episode_walls_ms", walls);
    out.notes.set(
        "samples",
        Json::obj()
            .with("episodes", eps.len())
            .with("ttft", ttft.len())
            .with("itl", itl.len())
            .with("recover", recover.len()),
    );
}

/// Per-layer metrics from traced episodes, normalised per episode.
pub fn put_per_layer(out: &mut Outcome, log: &EpisodeLog<Episode>) {
    let eps = &log.traced;
    let n = eps.len().max(1) as f64;
    let c = |f: &dyn Fn(&Counters) -> u64| eps.iter().map(|e| f(&e.counters)).sum::<u64>() as f64;
    let cf = |f: &dyn Fn(&Counters) -> f64| eps.iter().map(|e| f(&e.counters)).sum::<f64>();
    let episode_ns: u64 = eps.iter().map(|e| e.wall_ns).sum();
    let busy = |out: &Outcome, name: &str| out.tracer.busy(name);

    let (calls, ns) = busy(out, "attention.prefill");
    out.put(
        "attention.prefill.calls",
        calls as f64 / n,
        "count",
        Kind::Host,
    );
    out.put("attention.prefill.busy_ms", ms(ns) / n, "ms", Kind::Host);
    let per_pair = ratio(ns as f64, cf(&|c| c.prefill_pairs));
    out.put("attention.prefill.ns_per_pair", per_pair, "ns", Kind::Host);
    let share = ratio(ns as f64, episode_ns as f64);
    out.put("attention.prefill.wall_share", share, "ratio", Kind::Host);

    let (calls, ns) = busy(out, "attention.decode");
    out.put(
        "attention.decode.calls",
        calls as f64 / n,
        "count",
        Kind::Host,
    );
    out.put("attention.decode.busy_ms", ms(ns) / n, "ms", Kind::Host);
    let per_tok = ratio(ns as f64, cf(&|c| c.decode_ctx_tokens));
    out.put(
        "attention.decode.ns_per_ctx_token",
        per_tok,
        "ns",
        Kind::Host,
    );
    let share = ratio(ns as f64, episode_ns as f64);
    out.put("attention.decode.wall_share", share, "ratio", Kind::Host);
    let rel = eps.iter().map(|e| e.rel_err).fold(0.0, f64::max);
    out.put("attention.rel_err", rel, "ratio", Kind::Host);

    let (hits, misses) = (c(&|c| c.tile_hits), c(&|c| c.tile_misses));
    out.put("kvcache.tile.hits", hits / n, "count", Kind::Host);
    out.put("kvcache.tile.misses", misses / n, "count", Kind::Host);
    out.put(
        "kvcache.tile.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        Kind::Host,
    );
    out.put(
        "kvcache.flushes",
        c(&|c| c.flushes) / n,
        "count",
        Kind::Host,
    );
    out.put(
        "kvcache.resident_bytes",
        c(&|c| c.resident_bytes) / n,
        "B",
        Kind::Host,
    );
    let (fp16, total) = (c(&|c| c.fp16_bytes), c(&|c| c.total_bytes));
    out.put(
        "kvcache.compression_ratio",
        ratio(fp16, total),
        "ratio",
        Kind::Host,
    );

    let (_, ns) = busy(out, "kvcache.wal");
    out.put(
        "kvcache.wal.calls",
        c(&|c| c.wal_calls) / n,
        "count",
        Kind::Host,
    );
    out.put("kvcache.wal.busy_ms", ms(ns) / n, "ms", Kind::Host);
    out.put(
        "kvcache.wal.bytes",
        c(&|c| c.wal_bytes) / n,
        "B",
        Kind::Host,
    );
    out.put(
        "kvcache.wal.records",
        c(&|c| c.wal_records) / n,
        "count",
        Kind::Host,
    );
    let (_, ns) = busy(out, "kvcache.checkpoint");
    out.put(
        "kvcache.checkpoint.calls",
        c(&|c| c.checkpoint_calls) / n,
        "count",
        Kind::Host,
    );
    out.put("kvcache.checkpoint.busy_ms", ms(ns) / n, "ms", Kind::Host);
    out.put(
        "kvcache.checkpoint.bytes",
        c(&|c| c.checkpoint_bytes) / n,
        "B",
        Kind::Host,
    );
    let (_, ns) = busy(out, "kvcache.recover");
    let recovers = c(&|c| c.recover_calls);
    out.put("kvcache.recover.calls", recovers / n, "count", Kind::Host);
    out.put("kvcache.recover.busy_ms", ms(ns) / n, "ms", Kind::Host);
    out.put(
        "kvcache.recover.replayed_records",
        c(&|c| c.replayed_records) / n,
        "count",
        Kind::Host,
    );
    let clean = c(&|c| c.clean_recovers);
    out.put(
        "kvcache.recover.clean_ratio",
        ratio(clean, recovers),
        "ratio",
        Kind::Host,
    );
    out.notes.set(
        "ratio_bases",
        Json::obj()
            .with("traced_episodes", eps.len())
            .with("tile_hits", hits)
            .with("tile_misses", misses)
            .with("fp16_bytes", fp16)
            .with("quantized_bytes", total)
            .with("clean_recovers", clean)
            .with("recovers", recovers)
            .with("traced_episode_wall_ns", episode_ns),
    );

    log.put_overhead_ratio(out);
    report::put_trace_metrics(out, log.traced_wall_ns, eps.len());
}

/// The cache configuration the engine's prefill writes (the durable
/// set's cells must match it).
pub fn cache_config(engine: &TurboAttention) -> KvCacheConfig {
    let cfg = engine.config();
    KvCacheConfig {
        bits: cfg.kv_bits,
        group_size: cfg.group_size,
        buffer_capacity: cfg.buffer_capacity,
    }
}

/// One request on the durable serving path.
pub struct Request<'a> {
    pub id: u32,
    pub layers: usize,
    /// Query heads per layer (for the context-token count).
    pub q_heads: usize,
    /// Cached (KV) heads per layer: the cells of the durable set.
    pub kv_heads: usize,
    pub d: usize,
    pub prompt: usize,
    pub steps: usize,
    pub cache: KvCacheConfig,
    /// Run the crash drill on this request.
    pub recover: bool,
    pub health: &'a Arc<HealthStats>,
}

/// What [`serve`] hands back for the workload's accuracy checks.
pub struct Served {
    pub set: DurableLayerSet,
    /// Per layer, per query head prefill outputs.
    pub prefill_outs: Vec<Vec<Matrix>>,
}

/// Serves one request: `prefill(l)` prefills layer `l`; the caches join
/// a `DurableLayerSet` and are checkpointed; then for each decode step
/// `decode(l, t, cache, ks, vs)` runs layer `l` and pushes the k/v rows it
/// appended, and the step ends with one `commit_pipelined_token`. The
/// caches are restored and, if asked, recovered from `durable_state()`
/// and compared with the live set. Adds the request's timings to `ep`
/// (its wall time excludes the comparison).
pub fn serve<'i>(
    out: &mut Outcome,
    ep: &mut Episode,
    r: &Request,
    mut prefill: impl FnMut(usize) -> (Vec<Matrix>, LayerKvCache),
    mut decode: impl FnMut(usize, usize, &mut LayerKvCache, &mut Vec<&'i [f32]>, &mut Vec<&'i [f32]>),
) -> Served {
    let rt = turbo_runtime::global();
    let health = Some(&**r.health);
    let c = &mut ep.counters;
    let start = Instant::now();

    // Prefill; TTFT ends with the last layer's output.
    let mut layers = Vec::with_capacity(r.layers);
    let mut prefill_outs = Vec::with_capacity(r.layers);
    for l in 0..r.layers {
        let (outs, cache) = out.tracer.span("attention.prefill", || prefill(l));
        prefill_outs.push(outs);
        layers.push(cache);
    }
    let ttft = start.elapsed();
    ep.ttft_ns.push(ttft.as_nanos() as u64);
    ep.prefill_rates.push(r.prompt as f64 / ttft.as_secs_f64());
    out.ledger.ops(Phase::Prefill, r.layers as u64);
    c.prefill_pairs += (r.layers * r.q_heads * r.prompt * (r.prompt + 1) / 2) as f64;
    for head in layers.iter().flat_map(|l| l.iter()) {
        head.set_tile_cache_health(Some(Arc::clone(r.health)));
    }

    // The prompt joins the durable set through one checkpoint.
    let mut set = out.tracer.span("kvcache.open", || {
        DurableLayerSet::new(
            r.layers,
            r.kv_heads,
            r.d,
            r.cache,
            Box::new(NeverCheckpoint),
        )
    });
    out.tracer.span("kvcache.pipeline", || {
        drop(set.take_layers_for_pipeline());
        set.restore_layers_from_pipeline(layers, health);
    });
    let bytes = out
        .tracer
        .span("kvcache.checkpoint", || set.checkpoint_on(rt, health));
    c.checkpoint_calls += 1;
    c.checkpoint_bytes += bytes as u64;
    out.ledger.ops(Phase::Checkpoint, 1);

    // Decode with one group commit per token.
    let mut cells = out
        .tracer
        .span("kvcache.pipeline", || set.take_layers_for_pipeline());
    let blocks_before = resident_blocks(&cells);
    let mut ks = Vec::with_capacity(r.layers * r.kv_heads);
    let mut vs = Vec::with_capacity(r.layers * r.kv_heads);
    let mut rejected = 0u64;
    for t in 0..r.steps {
        let step = Instant::now();
        ks.clear();
        vs.clear();
        for (l, cell) in cells.iter_mut().enumerate() {
            out.tracer
                .span("attention.decode", || decode(l, t, cell, &mut ks, &mut vs));
        }
        let committed = out.tracer.span("kvcache.wal", || {
            set.commit_pipelined_token(&ks, &vs, health)
        });
        rejected += committed.is_err() as u64;
        ep.itl_ns.push(step.elapsed().as_nanos() as u64);
        c.decode_ctx_tokens += (r.layers * r.q_heads * (r.prompt + t + 1)) as f64;
    }
    out.ledger.ops(Phase::Decode, (r.steps * r.layers) as u64);
    out.ledger.ops(Phase::Commit, r.steps as u64);
    out.ledger.fail_unless(Phase::Commit, rejected == 0, || {
        format!("{rejected} group commits rejected (request {})", r.id)
    });
    c.wal_calls += r.steps as u64;
    out.tracer.span("kvcache.pipeline", || {
        set.restore_layers_from_pipeline(cells, health)
    });
    c.wal_bytes += set.wal().record_bytes() as u64;
    c.wal_records += set.wal().records() as u64;

    // Crash drill: what a crash leaves, rebuilt; the copy is not timed.
    let recovered = r.recover.then(|| {
        let (ckpt, wal) = out
            .tracer
            .span("kvcache.durable_state", || set.durable_state());
        let t = Instant::now();
        let rec = out.tracer.span("kvcache.recover", || {
            let policy = Box::new(NeverCheckpoint);
            DurableLayerSet::recover_on(
                rt, r.layers, r.kv_heads, r.d, r.cache, policy, &ckpt, &wal, health,
            )
        });
        ep.recover_ns.push(t.elapsed().as_nanos() as u64);
        rec
    });
    ep.wall_ns += start.elapsed().as_nanos() as u64;
    ep.requests += 1;
    ep.prompt_tokens += r.prompt as u64;
    ep.decode_tokens += r.steps as u64;

    if let Some(rec) = recovered {
        let tokens = r.prompt + r.steps;
        let ok = out.tracer.span("kvcache.verify", || match &rec {
            Ok((copy, outcome)) => {
                outcome.clean
                    && outcome.tokens == tokens
                    && set.tokens() == tokens
                    && same_cells(copy, &set)
            }
            Err(_) => false,
        });
        out.ledger.check(Phase::Recover, ok, || {
            format!("recovered set differs from the live set (request {})", r.id)
        });
        c.recover_calls += 1;
        if let Ok((_, outcome)) = &rec {
            c.clean_recovers += outcome.clean as u64;
            if let Some(w) = outcome.wal {
                c.replayed_records += (w.appends + w.flushes) as u64;
            }
        }
    }
    c.add_cells(&set, blocks_before);
    Served { set, prefill_outs }
}

/// A set's `GroupCommitStats` for the report.
pub fn group_commit_json(g: turbo_kvcache::GroupCommitStats) -> Json {
    Json::obj()
        .with("group_commits", g.group_commits)
        .with("rows_committed", g.rows_committed)
        .with("checkpoints", g.checkpoints())
        .with("manual_checkpoints", g.manual_checkpoints)
        .with("wal_syncs", g.wal_syncs)
}

/// Relative error of `got` vs `exact`, checked against `bound` as one op
/// of `phase`; returns the error.
pub fn check_rel_err(
    out: &mut Outcome,
    phase: Phase,
    got: &Matrix,
    exact: &Matrix,
    bound: f64,
    what: impl FnOnce() -> String,
) -> f64 {
    let err = relative_error(got, exact);
    out.ledger
        .check(phase, err.is_finite() && err <= bound, || {
            format!("{} rel_err {err:.4} above {bound}", what())
        });
    err
}

/// Whether two sets hold byte-identical caches in every cell.
pub fn same_cells(a: &DurableLayerSet, b: &DurableLayerSet) -> bool {
    a.num_layers() == b.num_layers()
        && (0..a.num_layers()).all(|l| {
            a.layer(l)
                .iter()
                .zip(b.layer(l).iter())
                .all(|(x, y)| serialize_head_cache(x) == serialize_head_cache(y))
        })
}

//! `decode_long_gqa`: one long GQA request per episode.
//!
//! 4 layers of 16 query heads sharing 4 KV heads (LLaMA3-8B's 4:1
//! ratio), d = 128. A 256-token prompt is prefilled per layer with
//! `prefill_layer_gqa_on`; the caches join a `DurableLayerSet` and are
//! checkpointed; then 1536 teacher-forced steps run `decode_layer_gqa_on`
//! on every layer with the caches taken for pipelining and one
//! `commit_pipelined_token` group record per token, so the context grows
//! from 256 to 1792 tokens and every cache flushes 24 times. At the end
//! the caches are restored, the durable state is recovered and compared
//! byte for byte with the live set, and a final checkpoint is cut.
//!
//! Decode dominates, so attention decode, the dequant tile cache, SAS
//! and the WAL append path set the episode time.

use std::sync::Arc;
use std::time::Instant;

use turbo_attention::{naive_attention, GqaLayout, Masking, TurboAttention, TurboConfig};
use turbo_kvcache::{DurableLayerSet, KvCacheConfig};
use turbo_robust::HealthStats;
use turbo_tensor::{Matrix, TensorRng};

use crate::host::{self, Episode, DECODE_REL_ERR_BOUND, PREFILL_REL_ERR_BOUND};
use crate::ledger::Phase;
use crate::report::{self, Outcome};
use crate::{Opts, Size};

/// Shape of the workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub layers: usize,
    pub q_heads: usize,
    pub kv_heads: usize,
    pub d: usize,
    pub prompt: usize,
    pub steps: usize,
}

impl Shape {
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Self {
                layers: 4,
                q_heads: 16,
                kv_heads: 4,
                d: 128,
                prompt: 256,
                steps: 1536,
            },
            Size::Smoke => Self {
                layers: 2,
                q_heads: 4,
                kv_heads: 1,
                d: 32,
                prompt: 64,
                steps: 96,
            },
        }
    }

    /// Floats of one token's q/k/v rows for one layer.
    fn width(&self) -> usize {
        (self.q_heads + 2 * self.kv_heads) * self.d
    }
}

/// Decode cells whose output is checked against exact f32 per episode.
const DECODE_SAMPLES: usize = 8;
/// Prefill cells (last 64 query rows) checked per episode.
const PREFILL_SAMPLES: usize = 2;
/// Rows of a prefill cell compared with the exact reference.
const PREFILL_CHECK_ROWS: usize = 64;

/// Seeded inputs: per-layer prompt matrices and a pool of decode rows.
struct Inputs {
    shape: Shape,
    /// `prompt_q[l][h]`, `prompt_k[l][kv]`, `prompt_v[l][kv]`.
    prompt_q: Vec<Vec<Matrix>>,
    prompt_k: Vec<Vec<Matrix>>,
    prompt_v: Vec<Vec<Matrix>>,
    /// `pool_rows × width` decode rows: q heads, then k, then v.
    pool: Vec<f32>,
    pool_rows: usize,
    /// `(step, layer, q head)` cells checked against exact attention.
    decode_samples: Vec<(usize, usize, usize)>,
    /// `(layer, q head)` prefill cells checked.
    prefill_samples: Vec<(usize, usize)>,
}

impl Inputs {
    fn new(shape: Shape, seed: u64) -> Self {
        let mut rng = TensorRng::new(seed);
        let (p, d) = (shape.prompt, shape.d);
        let mut prompt_q = Vec::new();
        let mut prompt_k = Vec::new();
        let mut prompt_v = Vec::new();
        for _ in 0..shape.layers {
            prompt_q.push(
                (0..shape.q_heads)
                    .map(|_| rng.normal(p, d, 0.0, 1.0))
                    .collect(),
            );
            prompt_k.push(
                (0..shape.kv_heads)
                    .map(|_| rng.normal(p, d, 0.0, 1.0))
                    .collect(),
            );
            prompt_v.push(
                (0..shape.kv_heads)
                    .map(|_| rng.normal(p, d, 0.0, 1.0))
                    .collect(),
            );
        }
        // One pool row per decode step; layer l reads it rotated by l
        // rows, so every (layer, step) sees distinct data.
        let pool_rows = shape.steps + shape.layers;
        let pool: Vec<f32> = (0..pool_rows * shape.width())
            .map(|_| rng.standard_normal())
            .collect();
        let decode_samples = (0..DECODE_SAMPLES)
            .map(|_| {
                (
                    rng.index(shape.steps),
                    rng.index(shape.layers),
                    rng.index(shape.q_heads),
                )
            })
            .collect();
        let prefill_samples = (0..PREFILL_SAMPLES)
            .map(|_| (rng.index(shape.layers), rng.index(shape.q_heads)))
            .collect();
        Self {
            shape,
            prompt_q,
            prompt_k,
            prompt_v,
            pool,
            pool_rows,
            decode_samples,
            prefill_samples,
        }
    }

    /// Layer `l`'s q/k/v rows for decode step `t`.
    fn row(&self, l: usize, t: usize) -> &[f32] {
        let w = self.shape.width();
        let r = (t + l) % self.pool_rows;
        &self.pool[r * w..(r + 1) * w]
    }

    fn q<'a>(&self, row: &'a [f32], h: usize) -> &'a [f32] {
        let d = self.shape.d;
        &row[h * d..(h + 1) * d]
    }

    fn k<'a>(&self, row: &'a [f32], kv: usize) -> &'a [f32] {
        let off = (self.shape.q_heads + kv) * self.shape.d;
        &row[off..off + self.shape.d]
    }

    fn v<'a>(&self, row: &'a [f32], kv: usize) -> &'a [f32] {
        let off = (self.shape.q_heads + self.shape.kv_heads + kv) * self.shape.d;
        &row[off..off + self.shape.d]
    }

    /// Exact f32 K and V of `(layer, kv head)` after decode step `t`.
    fn context(&self, l: usize, kv: usize, t: usize) -> (Matrix, Matrix) {
        let mut k = self.prompt_k[l][kv].clone();
        let mut v = self.prompt_v[l][kv].clone();
        let rows: Vec<&[f32]> = (0..=t).map(|s| self.row(l, s)).collect();
        let ks: Vec<&[f32]> = rows.iter().map(|r| self.k(r, kv)).collect();
        let vs: Vec<&[f32]> = rows.iter().map(|r| self.v(r, kv)).collect();
        k.append_rows(&Matrix::from_rows(&ks));
        v.append_rows(&Matrix::from_rows(&vs));
        (k, v)
    }
}

struct Bench {
    inputs: Inputs,
    engine: TurboAttention,
    layout: GqaLayout,
    cache: KvCacheConfig,
    health: Arc<HealthStats>,
    /// The last episode's live set (context for the baselines).
    last: Option<DurableLayerSet>,
}

fn setup(opts: &Opts) -> Bench {
    let shape = Shape::of(opts.size);
    let engine = TurboAttention::new(TurboConfig::default());
    Bench {
        inputs: Inputs::new(shape, opts.seed),
        layout: GqaLayout::new(shape.q_heads, shape.kv_heads),
        cache: host::cache_config(&engine),
        engine,
        health: Arc::new(HealthStats::new()),
        last: None,
    }
}

impl Bench {
    fn episode(&mut self, out: &mut Outcome, id: u32) -> Episode {
        let rt = turbo_runtime::global();
        let inp = &self.inputs;
        let s = inp.shape;
        let (engine, layout) = (&self.engine, self.layout);
        let mut ep = Episode::default();
        out.tracer.set_request(id);
        let frame = out.tracer.begin("frame.request");
        let request = host::Request {
            id,
            layers: s.layers,
            q_heads: s.q_heads,
            kv_heads: s.kv_heads,
            d: s.d,
            prompt: s.prompt,
            steps: s.steps,
            cache: self.cache,
            recover: true,
            health: &self.health,
        };
        let mut sampled: Vec<(usize, Vec<f32>)> = Vec::new();
        let mut qs: Vec<&[f32]> = Vec::with_capacity(s.q_heads);
        let served = host::serve(
            out,
            &mut ep,
            &request,
            |l| {
                let (q, k, v) = (&inp.prompt_q[l], &inp.prompt_k[l], &inp.prompt_v[l]);
                engine.prefill_layer_gqa_on(rt, layout, q, k, v, 0)
            },
            |l, t, cell, ks, vs| {
                let row = inp.row(l, t);
                qs.clear();
                qs.extend((0..s.q_heads).map(|h| inp.q(row, h)));
                let k0 = ks.len();
                ks.extend((0..s.kv_heads).map(|kv| inp.k(row, kv)));
                vs.extend((0..s.kv_heads).map(|kv| inp.v(row, kv)));
                let outs = engine.decode_layer_gqa_on(rt, layout, &qs, &ks[k0..], &vs[k0..], cell);
                for (i, &(st, sl, sh)) in inp.decode_samples.iter().enumerate() {
                    if (st, sl) == (t, l) {
                        sampled.push((i, outs[sh].clone()));
                    }
                }
            },
        );
        // The final checkpoint of the restored set ends the request.
        let mut set = served.set;
        let t = Instant::now();
        let bytes = out.tracer.span("kvcache.checkpoint", || {
            set.checkpoint_on(rt, Some(&*self.health))
        });
        ep.wall_ns += t.elapsed().as_nanos() as u64;
        ep.counters.checkpoint_calls += 1;
        ep.counters.checkpoint_bytes += bytes as u64;
        out.ledger.ops(Phase::Checkpoint, 1);
        ep.rel_err = self.check_accuracy(out, &served.prefill_outs, &sampled);
        out.tracer.end(frame);
        self.last = Some(set);
        ep
    }

    /// Largest relative error over the sampled prefill and decode cells
    /// against `naive_attention` on the exact f32 inputs.
    fn check_accuracy(
        &self,
        out: &mut Outcome,
        prefill_outs: &[Vec<Matrix>],
        sampled: &[(usize, Vec<f32>)],
    ) -> f64 {
        let inp = &self.inputs;
        let s = inp.shape;
        let mut worst = 0.0f64;
        for &(l, h) in &inp.prefill_samples {
            let kv = self.layout.kv_head_of(h);
            let rows = PREFILL_CHECK_ROWS.min(s.prompt);
            let q = inp.prompt_q[l][h].row_block(s.prompt - rows, rows);
            let exact = out.tracer.span("attention.reference", || {
                naive_attention(
                    &q,
                    &inp.prompt_k[l][kv],
                    &inp.prompt_v[l][kv],
                    Masking::Causal,
                )
            });
            let got = prefill_outs[l][h].row_block(s.prompt - rows, rows);
            let err = host::check_rel_err(
                out,
                Phase::Prefill,
                &got,
                &exact,
                PREFILL_REL_ERR_BOUND,
                || format!("prefill cell (layer {l}, head {h})"),
            );
            worst = worst.max(err);
        }
        for (i, got) in sampled {
            let (t, l, h) = inp.decode_samples[*i];
            let kv = self.layout.kv_head_of(h);
            let (k, v) = out.tracer.span("client.check", || inp.context(l, kv, t));
            let q = Matrix::from_vec(1, s.d, inp.q(inp.row(l, t), h).to_vec());
            let exact = out.tracer.span("attention.reference", || {
                naive_attention(&q, &k, &v, Masking::Causal)
            });
            let got = Matrix::from_vec(1, s.d, got.clone());
            let err = host::check_rel_err(
                out,
                Phase::Decode,
                &got,
                &exact,
                DECODE_REL_ERR_BOUND,
                || format!("decode cell (step {t}, layer {l}, head {h})"),
            );
            worst = worst.max(err);
        }
        worst
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(opts.trace);
    let (mut bench, setup_s) = crate::measure_setup(|| setup(opts));
    let mut log = host::run_episodes(opts, &mut out, |out, req| bench.episode(out, req));
    let s = bench.inputs.shape;
    host::put_end_to_end(&mut out, &log.untraced, setup_s);
    report::put_health(&mut out, &bench.health, log.episodes());
    if opts.trace {
        let t = Instant::now();
        let frame = out.tracer.begin("frame.probes");
        crate::probes::kernel_probes(&mut out, opts.seed, s.d, s.prompt + s.steps);
        let inp = &bench.inputs;
        crate::probes::prefill_baseline(
            &mut out,
            &bench.engine,
            &inp.prompt_q[0][0],
            &inp.prompt_k[0][0],
            &inp.prompt_v[0][0],
        );
        let set = bench.last.as_ref().expect("an episode ran");
        let (k, v) = out
            .tracer
            .span("client.check", || inp.context(0, 0, s.steps - 1));
        let q = inp.q(inp.row(0, s.steps - 1), 0).to_vec();
        crate::probes::decode_baselines(
            &mut out,
            bench.engine.sas(),
            set.layer(0).head(0),
            &k,
            &v,
            &q,
        );
        out.tracer.end(frame);
        log.traced_wall_ns += t.elapsed().as_nanos() as u64;
        host::put_per_layer(&mut out, &log);
    }
    out.notes.set(
        "shape",
        crate::json::Json::obj()
            .with("layers", s.layers)
            .with("q_heads", s.q_heads)
            .with("kv_heads", s.kv_heads)
            .with("head_dim", s.d)
            .with("prompt_tokens", s.prompt)
            .with("decode_steps", s.steps)
            .with("prefill_rel_err_bound", PREFILL_REL_ERR_BOUND)
            .with("decode_rel_err_bound", DECODE_REL_ERR_BOUND),
    );
    if let Some(set) = &bench.last {
        out.notes
            .set("group_commit_stats", host::group_commit_json(set.stats()));
    }
    out
}

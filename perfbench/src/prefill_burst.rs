//! `prefill_burst`: a closed loop of 48 MHA requests per episode.
//!
//! 4 layers × 8 heads, d = 64. Prompt lengths are seeded-uniform over
//! [256, 1024] (one draw in each of 48 equal strata, in seeded order, so
//! every seed covers the range evenly). Each request prefills every
//! layer with `prefill_layer_parallel_on`, joins a `DurableLayerSet`
//! that is checkpointed, then decodes 32 steps with
//! `decode_layer_parallel_on` and one group commit per token. One request
//! in 4 (every 4th length stratum) is recovered from `durable_state()`
//! through `DurableLayerSet::recover_on` and compared byte for byte with
//! the live set.
//!
//! Prefill dominates, so attention prefill, INT8 encode, progressive
//! compression and the i8 GEMM set the episode time; kvcache persistence
//! is exercised as bulk checkpoints and recovery reads.

use std::sync::Arc;
use std::time::Instant;

use turbo_attention::{naive_attention, Masking, TurboAttention, TurboConfig};
use turbo_kvcache::{DurableLayerSet, KvCacheConfig};
use turbo_robust::HealthStats;
use turbo_tensor::{Matrix, TensorRng};

use crate::host::{self, Episode, DECODE_REL_ERR_BOUND, PREFILL_REL_ERR_BOUND};
use crate::json::Json;
use crate::ledger::Phase;
use crate::report::{self, Outcome};
use crate::{Opts, Size};

#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub requests: usize,
    pub layers: usize,
    pub heads: usize,
    pub d: usize,
    pub min_prompt: usize,
    pub max_prompt: usize,
    pub steps: usize,
    /// One request in this many is recovered and compared: those in
    /// every n-th length stratum, so each seed recovers the same mix of
    /// prompt lengths.
    pub recover_every: usize,
}

impl Shape {
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => Self {
                requests: 48,
                layers: 4,
                heads: 8,
                d: 64,
                min_prompt: 256,
                max_prompt: 1024,
                steps: 32,
                recover_every: 4,
            },
            Size::Smoke => Self {
                requests: 8,
                layers: 2,
                heads: 2,
                d: 32,
                min_prompt: 64,
                max_prompt: 192,
                steps: 8,
                recover_every: 4,
            },
        }
    }

    fn width(&self) -> usize {
        3 * self.heads * self.d
    }
}

/// Extra base rows, so requests start at seeded offsets.
const OFFSET_SPAN: usize = 256;
/// Rows of the sampled prefill cell compared with exact f32.
const PREFILL_CHECK_ROWS: usize = 32;
/// One prefill cell is checked on every this many requests.
const PREFILL_CHECK_EVERY: usize = 4;

struct Request {
    prompt: usize,
    /// Rank of the prompt's length stratum (0 = shortest).
    stratum: usize,
    offset: usize,
    /// Checked cells: prefill `(layer, head)`, decode `(step, layer, head)`.
    prefill_cell: (usize, usize),
    decode_cell: (usize, usize, usize),
}

struct Inputs {
    shape: Shape,
    /// `base[l][role][h]`: `max_prompt + OFFSET_SPAN` rows; role 0/1/2 =
    /// q/k/v. A request's prompt is a row window of these.
    base: Vec<[Vec<Matrix>; 3]>,
    /// Decode rows (`q`, then `k`, then `v` for every head).
    pool: Vec<f32>,
    pool_rows: usize,
    requests: Vec<Request>,
}

impl Inputs {
    fn new(shape: Shape, seed: u64) -> Self {
        let mut rng = TensorRng::new(seed);
        let rows = shape.max_prompt + OFFSET_SPAN;
        let base = (0..shape.layers)
            .map(|_| {
                [(); 3].map(|_| {
                    (0..shape.heads)
                        .map(|_| rng.normal(rows, shape.d, 0.0, 1.0))
                        .collect()
                })
            })
            .collect();
        let pool_rows = 4 * shape.steps * shape.layers;
        let pool: Vec<f32> = (0..pool_rows * shape.width())
            .map(|_| rng.standard_normal())
            .collect();
        // Stratified prompt lengths: one uniform draw per stratum.
        let n = shape.requests;
        let span = (shape.max_prompt - shape.min_prompt + 1) as f32;
        let order = rng.permutation(n);
        let requests = order
            .into_iter()
            .map(|stratum| {
                let u = (stratum as f32 + rng.uniform_value(0.0, 1.0)) / n as f32;
                let prompt = (shape.min_prompt + (u * span) as usize).min(shape.max_prompt);
                Request {
                    prompt,
                    stratum,
                    offset: rng.index(rows - prompt + 1),
                    prefill_cell: (rng.index(shape.layers), rng.index(shape.heads)),
                    decode_cell: (
                        rng.index(shape.steps),
                        rng.index(shape.layers),
                        rng.index(shape.heads),
                    ),
                }
            })
            .collect();
        Self {
            shape,
            base,
            pool,
            pool_rows,
            requests,
        }
    }

    /// Layer `l`'s decode rows for step `t` of request `r`.
    fn row(&self, r: usize, l: usize, t: usize) -> &[f32] {
        let w = self.shape.width();
        let i = (r * 7 + t * self.shape.layers + l) % self.pool_rows;
        &self.pool[i * w..(i + 1) * w]
    }

    fn part<'a>(&self, row: &'a [f32], role: usize, h: usize) -> &'a [f32] {
        let d = self.shape.d;
        let off = (role * self.shape.heads + h) * d;
        &row[off..off + d]
    }

    /// Request `r`'s prompt for layer `l`: `[q, k, v]` per head.
    fn prompt(&self, r: usize, l: usize) -> [Vec<Matrix>; 3] {
        let req = &self.requests[r];
        self.base[l].each_ref().map(|heads| {
            heads
                .iter()
                .map(|m| m.row_block(req.offset, req.prompt))
                .collect()
        })
    }
}

struct Bench {
    inputs: Inputs,
    engine: TurboAttention,
    cache: KvCacheConfig,
    health: Arc<HealthStats>,
    /// The last request's context, kept for the baselines.
    last: Option<Last>,
}

/// Layer 0, head 0 of the last request: its live set, prompt q/k/v, and
/// the exact K/V and query of its final decode step.
struct Last {
    set: DurableLayerSet,
    prompt: [Matrix; 3],
    k: Matrix,
    v: Matrix,
    q: Vec<f32>,
}

fn setup(opts: &Opts) -> Bench {
    let shape = Shape::of(opts.size);
    let engine = TurboAttention::new(TurboConfig::default());
    Bench {
        inputs: Inputs::new(shape, opts.seed),
        cache: host::cache_config(&engine),
        engine,
        health: Arc::new(HealthStats::new()),
        last: None,
    }
}

impl Bench {
    /// One burst; its wall time is the sum of the requests' own times
    /// (input building and checks excluded).
    fn episode(&mut self, out: &mut Outcome, episode: u32) -> Episode {
        let frame = out.tracer.begin("frame.episode");
        let mut ep = Episode::default();
        for r in 0..self.inputs.shape.requests {
            let id = episode * self.inputs.shape.requests as u32 + r as u32;
            self.request(out, &mut ep, r, id);
        }
        out.tracer.end(frame);
        ep
    }

    fn request(&mut self, out: &mut Outcome, ep: &mut Episode, r: usize, id: u32) {
        let rt = turbo_runtime::global();
        let inp = &self.inputs;
        let s = inp.shape;
        let engine = &self.engine;
        let p = inp.requests[r].prompt;
        out.tracer.set_request(id);
        let frame = out.tracer.begin("frame.request");
        let prompts: Vec<[Vec<Matrix>; 3]> = out.tracer.span("client.input", || {
            (0..s.layers).map(|l| inp.prompt(r, l)).collect()
        });
        let bits = vec![self.cache.bits; s.heads];
        let request = host::Request {
            id,
            layers: s.layers,
            q_heads: s.heads,
            kv_heads: s.heads,
            d: s.d,
            prompt: p,
            steps: s.steps,
            cache: self.cache,
            recover: inp.requests[r].stratum % s.recover_every == s.recover_every - 1,
            health: &self.health,
        };
        let (dt, dl, dh) = inp.requests[r].decode_cell;
        let mut sampled = None;
        let mut qs: Vec<&[f32]> = Vec::with_capacity(s.heads);
        let served = host::serve(
            out,
            ep,
            &request,
            |l| {
                let [q, k, v] = &prompts[l];
                engine.prefill_layer_parallel_on(rt, q, k, v, &bits)
            },
            |l, t, cell, ks, vs| {
                let row = inp.row(r, l, t);
                qs.clear();
                qs.extend((0..s.heads).map(|h| inp.part(row, 0, h)));
                let k0 = ks.len();
                ks.extend((0..s.heads).map(|h| inp.part(row, 1, h)));
                vs.extend((0..s.heads).map(|h| inp.part(row, 2, h)));
                let outs = engine.decode_layer_parallel_on(rt, &qs, &ks[k0..], &vs[k0..], cell);
                if (t, l) == (dt, dl) {
                    sampled = Some(outs[dh].clone());
                }
            },
        );

        // Accuracy of one sampled prefill cell (every few requests) and
        // one sampled decode cell.
        let mut worst = 0.0f64;
        if r.is_multiple_of(PREFILL_CHECK_EVERY) {
            let (l, h) = inp.requests[r].prefill_cell;
            let rows = PREFILL_CHECK_ROWS.min(p);
            let [q, k, v] = &prompts[l];
            let q_last = q[h].row_block(p - rows, rows);
            let exact = out.tracer.span("attention.reference", || {
                naive_attention(&q_last, &k[h], &v[h], Masking::Causal)
            });
            let got = served.prefill_outs[l][h].row_block(p - rows, rows);
            let err = host::check_rel_err(
                out,
                Phase::Prefill,
                &got,
                &exact,
                PREFILL_REL_ERR_BOUND,
                || format!("prefill cell (request {id}, layer {l}, head {h})"),
            );
            worst = worst.max(err);
        }
        if let Some(got) = sampled {
            let (k, v) = out
                .tracer
                .span("client.check", || self.context(r, dl, dh, dt, &prompts));
            let q = Matrix::from_vec(1, s.d, inp.part(inp.row(r, dl, dt), 0, dh).to_vec());
            let exact = out.tracer.span("attention.reference", || {
                naive_attention(&q, &k, &v, Masking::Causal)
            });
            let got = Matrix::from_vec(1, s.d, got);
            let err = host::check_rel_err(
                out,
                Phase::Decode,
                &got,
                &exact,
                DECODE_REL_ERR_BOUND,
                || format!("decode cell (request {id}, step {dt}, layer {dl}, head {dh})"),
            );
            worst = worst.max(err);
        }
        ep.rel_err = ep.rel_err.max(worst);
        if r + 1 == s.requests {
            let t = s.steps - 1;
            let (k, v) = out
                .tracer
                .span("client.check", || self.context(r, 0, 0, t, &prompts));
            let q = self.inputs.part(self.inputs.row(r, 0, t), 0, 0).to_vec();
            let [pq, pk, pv] = &prompts[0];
            let prompt = [pq[0].clone(), pk[0].clone(), pv[0].clone()];
            self.last = Some(Last {
                set: served.set,
                prompt,
                k,
                v,
                q,
            });
        }
        out.tracer.end(frame);
    }

    /// Exact K and V of `(layer, head)` after decode step `t` of request
    /// `r`.
    fn context(
        &self,
        r: usize,
        l: usize,
        h: usize,
        t: usize,
        prompts: &[[Vec<Matrix>; 3]],
    ) -> (Matrix, Matrix) {
        let inp = &self.inputs;
        let mut k = prompts[l][1][h].clone();
        let mut v = prompts[l][2][h].clone();
        let rows: Vec<&[f32]> = (0..=t).map(|s| inp.row(r, l, s)).collect();
        let ks: Vec<&[f32]> = rows.iter().map(|row| inp.part(row, 1, h)).collect();
        let vs: Vec<&[f32]> = rows.iter().map(|row| inp.part(row, 2, h)).collect();
        k.append_rows(&Matrix::from_rows(&ks));
        v.append_rows(&Matrix::from_rows(&vs));
        (k, v)
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(opts.trace);
    let (mut bench, setup_s) = crate::measure_setup(|| setup(opts));
    let mut log = host::run_episodes(opts, &mut out, |out, e| bench.episode(out, e));
    let s = bench.inputs.shape;
    host::put_end_to_end(&mut out, &log.untraced, setup_s);
    report::put_health(&mut out, &bench.health, log.episodes());
    if opts.trace {
        let t = Instant::now();
        let frame = out.tracer.begin("frame.probes");
        let last = bench.last.as_ref().expect("a request ran");
        let [q, k, v] = &last.prompt;
        crate::probes::kernel_probes(&mut out, opts.seed, s.d, last.k.rows());
        crate::probes::prefill_baseline(&mut out, &bench.engine, q, k, v);
        let head = last.set.layer(0).head(0);
        crate::probes::decode_baselines(
            &mut out,
            bench.engine.sas(),
            head,
            &last.k,
            &last.v,
            &last.q,
        );
        out.tracer.end(frame);
        log.traced_wall_ns += t.elapsed().as_nanos() as u64;
        host::put_per_layer(&mut out, &log);
    }
    let prompts: Vec<Json> = bench
        .inputs
        .requests
        .iter()
        .map(|r| Json::from(r.prompt))
        .collect();
    out.notes.set(
        "shape",
        Json::obj()
            .with("requests", s.requests)
            .with("layers", s.layers)
            .with("heads", s.heads)
            .with("head_dim", s.d)
            .with("prompt_tokens", prompts)
            .with("decode_steps", s.steps)
            .with("recover_every", s.recover_every)
            .with("prefill_rel_err_bound", PREFILL_REL_ERR_BOUND)
            .with("decode_rel_err_bound", DECODE_REL_ERR_BOUND),
    );
    out
}

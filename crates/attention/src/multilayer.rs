//! Multi-layer episodes over a durable layer set, serialized or pipelined.
//!
//! A toy-but-complete L-layer transformer-shaped workload: each layer
//! projects its input into per-head q/k/v rows (a fixed rotation +
//! per-head gain — cheap, deterministic, and layer-distinct), appends k/v
//! to that layer's quantized cache, and attends with the fused integer
//! decode kernel. Layer `l`'s output is layer `l+1`'s input; the final
//! layer's output is the episode's output for that token. Decode inputs
//! are teacher-forced (each step's layer-0 input comes from the caller,
//! not the previous output), which keeps magnitudes bounded and makes
//! every token's compute independent of scheduling.
//!
//! Both engines below express the episode as the **same**
//! [`LayerPipeline`] DAG — built once, executed either serially in task
//! order ([`multilayer_episode_serialized`]) or with maximal overlap on
//! the pool ([`multilayer_episode_pipelined_on`]). Dependencies:
//!
//! * prefill chunk `(l, c)` needs `(l, c−1)` (per-layer token order) and
//!   `(l−1, c)` (its inputs) — so layer `k+1`'s prefill overlaps layer
//!   `k`'s later chunks along the pipeline diagonal;
//! * decode step `(l, i)` needs `(l, i−1)` (or layer `l`'s last prefill
//!   chunk) and `(l−1, i)`;
//! * WAL commits join at the **token boundary**: one task per prefill
//!   chunk / decode token, dependent on the *last* layer's compute for
//!   those tokens (hence transitively on every layer's), chained in token
//!   order, emitting exactly one atomic group-commit record per token via
//!   [`DurableLayerSet::commit_pipelined_token`];
//! * a final checkpoint-class task is the sync barrier.
//!
//! Because every task writes its own slot and reads only slots its
//! dependencies wrote, and per-cell append/attend sequences are fixed by
//! the DAG edges, the pipelined run is **bit-identical** to the
//! serialized one — outputs, cache state, and WAL bytes — at any worker
//! count.

use std::ops::Range;
use std::sync::Mutex;

use crate::decode::turbo_attend_cache;
use turbo_kvcache::{DurableLayerSet, LayerKvCache};
use turbo_robust::HealthStats;
use turbo_runtime::{LayerPipeline, PipelineStats, Runtime, TaskId, WorkClass};
use turbo_softmax::Sas;
use turbo_tensor::Matrix;

/// Result of one multi-layer episode.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiLayerOutput {
    /// Final layer's attention output per token, prompt tokens first,
    /// then decode steps. Each row is `heads × d` wide.
    pub outputs: Vec<Vec<f32>>,
    /// Pipeline execution statistics (`peak_in_flight == 1` for the
    /// serialized engine by construction).
    pub stats: PipelineStats,
}

/// Deterministic per-head projection of a layer input: a rotation of the
/// head's segment plus a layer/head/role-specific gain. `role` is
/// 0 = query, 1 = key, 2 = value.
fn project(x: &[f32], d: usize, h: usize, l: usize, role: usize) -> Vec<f32> {
    let seg = &x[h * d..(h + 1) * d];
    let rot = (l * 3 + role) % d;
    let gain = 0.9 + 0.01 * l as f32 + 0.003 * h as f32 + 0.02 * role as f32;
    (0..d).map(|i| seg[(i + rot) % d] * gain).collect()
}

/// One token through one layer: per head, project q/k/v, append k/v to
/// the layer's cache, attend over it. Returns the concatenated head
/// outputs plus the appended rows (the WAL commit needs them verbatim).
#[allow(clippy::type_complexity)]
fn layer_token_step(
    cell: &mut LayerKvCache,
    sas: &Sas,
    x: &[f32],
    l: usize,
    d: usize,
) -> (Vec<f32>, Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let heads = cell.num_heads();
    let mut y = Vec::with_capacity(heads * d);
    let mut ks = Vec::with_capacity(heads);
    let mut vs = Vec::with_capacity(heads);
    for h in 0..heads {
        let q = project(x, d, h, l, 0);
        let k = project(x, d, h, l, 1);
        let v = project(x, d, h, l, 2);
        let head = cell.head_mut(h);
        head.append(&k, &v);
        y.extend_from_slice(&turbo_attend_cache(&q, head, sas));
        ks.push(k);
        vs.push(v);
    }
    (y, ks, vs)
}

/// Shared episode state the pipeline tasks communicate through. Every
/// slot has exactly one writer (fixed by the DAG), so the mutexes are
/// uncontended by construction — they exist to satisfy `Sync`, not to
/// arbitrate.
#[allow(clippy::type_complexity)]
struct EpisodeState<'s> {
    /// Per-layer caches detached from the durable set; per-layer token
    /// order serializes access via the chunk/step dependency chains.
    cells: Vec<Mutex<LayerKvCache>>,
    /// `outs[l][t]`: layer `l`'s output for token `t`.
    outs: Vec<Vec<Mutex<Option<Vec<f32>>>>>,
    /// `rows[l][t]`: the k/v rows layer `l` appended for token `t`,
    /// retained until the token's WAL commit consumes them.
    rows: Vec<Vec<Mutex<Option<(Vec<Vec<f32>>, Vec<Vec<f32>>)>>>>,
    /// Sole custodian of the WAL while the caches are detached; commit
    /// tasks are fully chained, so this lock is uncontended too.
    committer: Mutex<&'s mut DurableLayerSet>,
}

impl EpisodeState<'_> {
    /// Commits token `t`'s group record: one atomic WAL record spanning
    /// every layer × head, in layer-major cell order — byte-identical to
    /// what `try_append_token` would have emitted.
    fn commit_token(&self, t: usize, layers: usize, heads: usize, health: Option<&HealthStats>) {
        let guards: Vec<_> = (0..layers)
            .map(|l| self.rows[l][t].lock().expect("row slot poisoned"))
            .collect();
        let mut ks: Vec<&[f32]> = Vec::with_capacity(layers * heads);
        let mut vs: Vec<&[f32]> = Vec::with_capacity(layers * heads);
        for g in &guards {
            let (k_rows, v_rows) = g.as_ref().expect("token rows missing at commit");
            for h in 0..heads {
                ks.push(&k_rows[h]);
                vs.push(&v_rows[h]);
            }
        }
        self.committer
            .lock()
            .expect("committer poisoned")
            .commit_pipelined_token(&ks, &vs, health)
            .expect("pipelined commit rejected rows the engine computed");
    }
}

/// How to execute the episode DAG.
enum Mode<'r> {
    Serial,
    Pipelined(&'r Runtime),
}

/// Runs one multi-layer episode against `set`: prefills `prompt` (in
/// chunks of `prefill_chunk` tokens), then decodes `decode.rows()` steps,
/// committing one WAL record per token and syncing at the end.
fn run_episode(
    mode: Mode<'_>,
    set: &mut DurableLayerSet,
    prompt: &Matrix,
    decode: &Matrix,
    sas: &Sas,
    prefill_chunk: usize,
    health: Option<&HealthStats>,
) -> MultiLayerOutput {
    let layers = set.num_layers();
    let heads = set.heads_per_layer();
    let d = set.head_dim();
    let width = heads * d;
    assert!(prefill_chunk > 0, "prefill chunk must be positive");
    assert!(prompt.rows() > 0, "episode needs at least one prompt token");
    assert_eq!(prompt.cols(), width, "prompt width must be heads × d");
    if decode.rows() > 0 {
        assert_eq!(decode.cols(), width, "decode width must be heads × d");
    }
    let p = prompt.rows();
    let n_dec = decode.rows();
    let total = p + n_dec;

    let st = EpisodeState {
        cells: set
            .take_layers_for_pipeline()
            .into_iter()
            .map(Mutex::new)
            .collect(),
        outs: (0..layers)
            .map(|_| (0..total).map(|_| Mutex::new(None)).collect())
            .collect(),
        rows: (0..layers)
            .map(|_| (0..total).map(|_| Mutex::new(None)).collect())
            .collect(),
        committer: Mutex::new(&mut *set),
    };

    let chunks: Vec<Range<usize>> = (0..p)
        .step_by(prefill_chunk)
        .map(|lo| lo..(lo + prefill_chunk).min(p))
        .collect();

    let mut pipe = LayerPipeline::new();

    // --- prefill compute: chunk (l, c) --------------------------------
    let mut prefill_ids: Vec<Vec<TaskId>> = Vec::with_capacity(layers);
    for l in 0..layers {
        let mut layer_ids: Vec<TaskId> = Vec::with_capacity(chunks.len());
        for (c, range) in chunks.iter().enumerate() {
            let mut deps = Vec::new();
            if c > 0 {
                deps.push(layer_ids[c - 1]);
            }
            if l > 0 {
                deps.push(prefill_ids[l - 1][c]);
            }
            let st = &st;
            let range = range.clone();
            let id = pipe.task(WorkClass::PrefillChunk, l, &deps, move || {
                let mut cell = st.cells[l].lock().expect("cell poisoned");
                for t in range.clone() {
                    let input;
                    let x: &[f32] = if l == 0 {
                        prompt.row(t)
                    } else {
                        input = st.outs[l - 1][t].lock().expect("out slot poisoned");
                        input.as_ref().expect("layer input missing").as_slice()
                    };
                    let (y, ks, vs) = layer_token_step(&mut cell, sas, x, l, d);
                    *st.outs[l][t].lock().expect("out slot poisoned") = Some(y);
                    *st.rows[l][t].lock().expect("row slot poisoned") = Some((ks, vs));
                }
            });
            layer_ids.push(id);
        }
        prefill_ids.push(layer_ids);
    }

    // --- prefill WAL commits: one task per chunk, one record per token,
    //     joined at the last layer (the token boundary), chained --------
    let mut wal_prev: Option<TaskId> = None;
    for (c, range) in chunks.iter().enumerate() {
        let mut deps = vec![prefill_ids[layers - 1][c]];
        if let Some(prev) = wal_prev {
            deps.push(prev);
        }
        let st = &st;
        let range = range.clone();
        wal_prev = Some(pipe.task(WorkClass::WalCommit, layers - 1, &deps, move || {
            for t in range.clone() {
                st.commit_token(t, layers, heads, health);
            }
        }));
    }

    // --- decode: step (l, i), then the token's WAL commit --------------
    let mut dec_prev_in_layer: Vec<TaskId> =
        (0..layers).map(|l| prefill_ids[l][chunks.len() - 1]).collect();
    for i in 0..n_dec {
        let mut prev_layer_step: Option<TaskId> = None;
        for (l, prev_in_layer) in dec_prev_in_layer.iter_mut().enumerate() {
            let mut deps = vec![*prev_in_layer];
            if let Some(below) = prev_layer_step {
                deps.push(below);
            }
            let st = &st;
            let t = p + i;
            let id = pipe.task(WorkClass::DecodeStep, l, &deps, move || {
                let mut cell = st.cells[l].lock().expect("cell poisoned");
                let input;
                let x: &[f32] = if l == 0 {
                    decode.row(i)
                } else {
                    input = st.outs[l - 1][t].lock().expect("out slot poisoned");
                    input.as_ref().expect("layer input missing").as_slice()
                };
                let (y, ks, vs) = layer_token_step(&mut cell, sas, x, l, d);
                *st.outs[l][t].lock().expect("out slot poisoned") = Some(y);
                *st.rows[l][t].lock().expect("row slot poisoned") = Some((ks, vs));
            });
            *prev_in_layer = id;
            prev_layer_step = Some(id);
        }
        let mut deps = vec![dec_prev_in_layer[layers - 1]];
        if let Some(prev) = wal_prev {
            deps.push(prev);
        }
        let st = &st;
        let t = p + i;
        wal_prev = Some(pipe.task(WorkClass::WalCommit, layers - 1, &deps, move || {
            st.commit_token(t, layers, heads, health);
        }));
    }

    // --- final durability barrier --------------------------------------
    {
        let deps: Vec<TaskId> = wal_prev.into_iter().collect();
        let st = &st;
        pipe.task(WorkClass::Checkpoint, layers - 1, &deps, move || {
            st.committer.lock().expect("committer poisoned").sync_wal();
        });
    }

    let stats = match mode {
        Mode::Serial => pipe.run_serial(),
        Mode::Pipelined(rt) => pipe.run_on(rt),
    };

    // Destructuring releases the committer's `&mut set` borrow so the
    // advanced cells can be reattached below.
    let EpisodeState {
        cells,
        mut outs,
        rows: _,
        committer: _,
    } = st;
    let advanced: Vec<LayerKvCache> = cells
        .into_iter()
        .map(|m| m.into_inner().expect("cell poisoned"))
        .collect();
    set.restore_layers_from_pipeline(advanced, health);

    let outputs: Vec<Vec<f32>> = outs
        .pop()
        .expect("at least one layer")
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("out slot poisoned")
                .expect("episode left a token uncomputed")
        })
        .collect();
    MultiLayerOutput { outputs, stats }
}

/// Serialized reference engine: executes the episode DAG in task order on
/// the calling thread. This is the bit-identity baseline the pipelined
/// engine is measured against.
pub fn multilayer_episode_serialized(
    set: &mut DurableLayerSet,
    prompt: &Matrix,
    decode: &Matrix,
    sas: &Sas,
    prefill_chunk: usize,
    health: Option<&HealthStats>,
) -> MultiLayerOutput {
    run_episode(Mode::Serial, set, prompt, decode, sas, prefill_chunk, health)
}

/// Pipelined engine on `rt` (pass [`turbo_runtime::global()`] for the
/// default pool): the same DAG released to the pool with maximal
/// overlap. Bit-identical to [`multilayer_episode_serialized`] —
/// outputs, cache state, WAL bytes — at any worker count.
pub fn multilayer_episode_pipelined_on(
    rt: &Runtime,
    set: &mut DurableLayerSet,
    prompt: &Matrix,
    decode: &Matrix,
    sas: &Sas,
    prefill_chunk: usize,
    health: Option<&HealthStats>,
) -> MultiLayerOutput {
    run_episode(
        Mode::Pipelined(rt),
        set,
        prompt,
        decode,
        sas,
        prefill_chunk,
        health,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_kvcache::{KvCacheConfig, NeverCheckpoint};
    use turbo_quant::BitWidth;
    use turbo_tensor::TensorRng;

    const LAYERS: usize = 4;
    const HEADS: usize = 3;
    const D: usize = 8;

    fn fresh_set(flush_every: usize) -> DurableLayerSet {
        let mut set = DurableLayerSet::new(
            LAYERS,
            HEADS,
            D,
            KvCacheConfig {
                bits: BitWidth::Int4,
                group_size: 8,
                buffer_capacity: 16,
            },
            Box::new(NeverCheckpoint),
        );
        set.set_flush_every_n_tokens(flush_every);
        set
    }

    fn episode_data(seed: u64, p: usize, n_dec: usize) -> (Matrix, Matrix) {
        let mut rng = TensorRng::new(seed);
        (
            rng.normal(p, HEADS * D, 0.0, 1.0),
            rng.normal(n_dec, HEADS * D, 0.0, 1.0),
        )
    }

    fn assert_sets_identical(a: &DurableLayerSet, b: &DurableLayerSet) {
        assert_eq!(a.tokens(), b.tokens());
        assert_eq!(a.wal().as_bytes(), b.wal().as_bytes(), "WAL bytes diverged");
        for l in 0..a.num_layers() {
            for h in 0..a.heads_per_layer() {
                assert_eq!(
                    a.layer(l).head(h).to_bytes(),
                    b.layer(l).head(h).to_bytes(),
                    "cell ({l}, {h}) diverged"
                );
            }
        }
    }

    #[test]
    fn pipelined_is_bit_identical_to_serialized_at_1_2_8_workers() {
        let (prompt, decode) = episode_data(901, 19, 7);
        let sas = Sas::paper_default();
        let mut ref_set = fresh_set(3);
        let reference =
            multilayer_episode_serialized(&mut ref_set, &prompt, &decode, &sas, 5, None);
        assert_eq!(reference.outputs.len(), 19 + 7);
        assert_eq!(reference.stats.peak_in_flight, 1);
        for workers in [1usize, 2, 8] {
            let rt = Runtime::with_workers(workers);
            let mut set = fresh_set(3);
            let out =
                multilayer_episode_pipelined_on(&rt, &mut set, &prompt, &decode, &sas, 5, None);
            assert_eq!(out.outputs, reference.outputs, "workers = {workers}");
            assert_sets_identical(&set, &ref_set);
            assert_eq!(out.stats.tasks, reference.stats.tasks);
            assert_eq!(out.stats.runs_per_class, reference.stats.runs_per_class);
        }
    }

    #[test]
    fn episode_emits_one_wal_record_per_token() {
        let (prompt, decode) = episode_data(902, 10, 4);
        let sas = Sas::paper_default();
        let mut set = fresh_set(1);
        multilayer_episode_serialized(&mut set, &prompt, &decode, &sas, 4, None);
        assert_eq!(set.wal().appends(), 14, "one group record per token");
        assert_eq!(set.tokens(), 14);
        assert_eq!(set.stats().group_commits, 14);
    }

    #[test]
    fn pipeline_overlaps_independent_layer_work() {
        let (prompt, decode) = episode_data(903, 24, 8);
        let sas = Sas::paper_default();
        let rt = Runtime::with_workers(4);
        let mut set = fresh_set(4);
        let out = multilayer_episode_pipelined_on(&rt, &mut set, &prompt, &decode, &sas, 4, None);
        // Structural overlap: with 4 workers and a 4-layer DAG, at least
        // two tasks must have been in flight at once at some point.
        assert!(
            out.stats.peak_in_flight >= 2,
            "pipeline never overlapped (peak {})",
            out.stats.peak_in_flight
        );
        // Work-class census: L × chunks prefill, L × dec decode, one WAL
        // task per chunk + per decode token, one sync barrier.
        let chunks = 24usize.div_ceil(4);
        assert_eq!(
            out.stats.runs_per_class,
            [LAYERS * chunks, LAYERS * 8, chunks + 8, 1]
        );
    }

    #[test]
    fn flush_cadence_is_respected_across_engines() {
        let (prompt, decode) = episode_data(904, 9, 5);
        let sas = Sas::paper_default();
        for flush_every in [1usize, 4, 13] {
            let mut a = fresh_set(flush_every);
            let mut b = fresh_set(flush_every);
            multilayer_episode_serialized(&mut a, &prompt, &decode, &sas, 3, None);
            let rt = Runtime::with_workers(2);
            multilayer_episode_pipelined_on(&rt, &mut b, &prompt, &decode, &sas, 3, None);
            assert_eq!(
                a.durable_state(),
                b.durable_state(),
                "flush_every = {flush_every}"
            );
            assert_eq!(a.stats().wal_syncs, b.stats().wal_syncs);
        }
    }

    #[test]
    fn ragged_chunks_and_single_layer_edge_cases() {
        let sas = Sas::paper_default();
        // Chunk bigger than the prompt; no decode steps at all.
        let (prompt, _) = episode_data(905, 5, 0);
        let decode = Matrix::zeros(0, HEADS * D);
        let mut a = fresh_set(1);
        let mut b = fresh_set(1);
        let ra = multilayer_episode_serialized(&mut a, &prompt, &decode, &sas, 64, None);
        let rt = Runtime::with_workers(2);
        let rb = multilayer_episode_pipelined_on(&rt, &mut b, &prompt, &decode, &sas, 64, None);
        assert_eq!(ra.outputs, rb.outputs);
        assert_sets_identical(&a, &b);
        assert_eq!(a.tokens(), 5);
    }
}

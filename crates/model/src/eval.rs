//! The accuracy-evaluation harness behind Tables 2–5 and Figure 7b.

use crate::backend::Backend;
use crate::profile::ModelProfile;
use crate::tasks::{RecallEpisode, TaskSuite};
use turbo_tensor::TensorRng;

/// Evaluation configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalConfig {
    /// Episodes per (profile, suite, backend) cell.
    pub episodes: usize,
    /// Base seed; episode `i` derives its own deterministic stream, so
    /// every backend sees the *same* episode sequence.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            episodes: 100,
            seed: 0xE7A1,
        }
    }
}

/// Accuracy of one evaluation cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    /// Correct episodes / total episodes.
    pub accuracy: f64,
    /// Episodes answered correctly end-to-end.
    pub correct: usize,
    /// Episodes evaluated.
    pub episodes: usize,
}

/// Runs `cfg.episodes` multi-hop recall episodes of `suite` on `profile`
/// under `backend`, scoring end-of-chain exact match (the CoT analogue of
/// extracting the final answer from 256 generated tokens).
///
/// Episodes are independent and derive their randomness purely from
/// `(seed, suite, index)`, so they are evaluated as chunked tasks on `rt`
/// (pass [`turbo_runtime::global()`] for the default pool); the chunk
/// size is fixed (worker-count independent) and per-chunk counts sum in
/// index order, so results are identical to a serial sweep.
pub fn evaluate_on(
    rt: &turbo_runtime::Runtime,
    backend: &dyn Backend,
    profile: &ModelProfile,
    suite: &TaskSuite,
    cfg: &EvalConfig,
) -> EvalResult {
    // Fixed chunk size: the task partition depends only on the episode
    // count, never on how many workers happen to exist.
    const EPISODE_CHUNK: usize = 8;
    let correct: usize = rt
        .par_tiles(cfg.episodes, EPISODE_CHUNK, |range| {
            range
                .filter(|&i| run_episode(backend, profile, suite, cfg.seed, i as u64))
                .count()
        })
        .into_iter()
        .sum();
    EvalResult {
        accuracy: correct as f64 / cfg.episodes.max(1) as f64,
        correct,
        episodes: cfg.episodes,
    }
}

/// Runs one episode; returns whether the final chain symbol was correct.
fn run_episode(
    backend: &dyn Backend,
    profile: &ModelProfile,
    suite: &TaskSuite,
    seed: u64,
    index: u64,
) -> bool {
    // Episode stream is a pure function of (seed, suite, index) so every
    // backend faces identical tasks and noise.
    let episode_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(suite.n_pairs as u64 * 31 + suite.hops as u64);
    let mut rng = TensorRng::new(episode_seed);
    let ep = RecallEpisode::generate_clustered(
        &mut rng,
        profile.vocab_size(),
        profile.cluster_size(),
        suite.n_pairs,
        suite.hops,
        suite.confusers,
    );
    let (ks, vs) = profile.episode_tensors(&ep, &mut rng);
    let prepared = backend.prepare(&ks, &vs);

    let mut cur = ep.cue;
    for _ in 0..ep.hops {
        let qs = profile.query_rows(cur);
        let outs = prepared.query(&qs);
        cur = profile.decode(&outs);
    }
    cur == ep.answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Fp16Backend, GearBackend, KiviBackend, TurboBackend};
    use turbo_quant::BitWidth;

    fn quick() -> EvalConfig {
        EvalConfig {
            episodes: 24,
            seed: 42,
        }
    }

    fn quick_eval(b: &dyn Backend, p: &ModelProfile, suite: &TaskSuite) -> EvalResult {
        evaluate_on(turbo_runtime::global(), b, p, suite, &quick())
    }

    #[test]
    fn fp16_accuracy_is_paper_like_on_every_profile() {
        // Table 2's FP16 rows sit between ~46% and ~85%; the proxies are
        // calibrated to the same regime (high but not saturated).
        let suite = TaskSuite::gsm8k_proxy();
        for p in ModelProfile::paper_profiles() {
            let r = quick_eval(&Fp16Backend, &p, &suite);
            assert!(
                (0.45..=1.0).contains(&r.accuracy),
                "{}: FP16 accuracy {}",
                p.name(),
                r.accuracy
            );
        }
    }

    #[test]
    fn turbo_int4_is_near_lossless() {
        let p = ModelProfile::llama3_like();
        let suite = TaskSuite::aqua_proxy();
        let fp16 = quick_eval(&Fp16Backend, &p, &suite);
        let turbo = quick_eval(&TurboBackend::int4(), &p, &suite);
        assert!(
            turbo.accuracy >= fp16.accuracy - 0.15,
            "turbo {} vs fp16 {}",
            turbo.accuracy,
            fp16.accuracy
        );
    }

    #[test]
    fn two_bit_degrades_more_than_four_bit() {
        let p = ModelProfile::qwen2_like();
        let suite = TaskSuite::gsm8k_proxy();
        let t4 = quick_eval(&TurboBackend::int4(), &p, &suite);
        let t2 = quick_eval(&TurboBackend::int2(), &p, &suite);
        assert!(
            t4.accuracy >= t2.accuracy,
            "int4 {} should be ≥ int2 {}",
            t4.accuracy,
            t2.accuracy
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let p = ModelProfile::phi3_like();
        let suite = TaskSuite::bbh_proxy();
        let b = KiviBackend::new(BitWidth::Int4);
        let a = quick_eval(&b, &p, &suite);
        let c = quick_eval(&b, &p, &suite);
        assert_eq!(a, c);
    }

    #[test]
    fn same_episodes_for_all_backends() {
        // Episode generation must not depend on the backend: two different
        // backends at FP16-equivalent precision decode the same chains.
        let p = ModelProfile::llama3_like();
        let suite = TaskSuite::bbh_proxy();
        let fp16 = quick_eval(&Fp16Backend, &p, &suite);
        let gear8 = quick_eval(&GearBackend::new(BitWidth::Int8), &p, &suite);
        // INT8 GEAR is near-exact, so results should match FP16 closely.
        assert!((fp16.accuracy - gear8.accuracy).abs() <= 0.1);
    }

    #[test]
    fn identical_across_worker_counts() {
        let p = ModelProfile::phi3_like();
        let suite = TaskSuite::gsm8k_proxy();
        let b = TurboBackend::int4();
        let baseline = quick_eval(&b, &p, &suite);
        for workers in [1usize, 2, 8] {
            let rt = turbo_runtime::Runtime::with_workers(workers);
            let r = evaluate_on(&rt, &b, &p, &suite, &quick());
            assert_eq!(baseline, r, "{workers} workers diverged");
        }
    }

    #[test]
    fn zero_episodes_is_safe() {
        let p = ModelProfile::llama3_like();
        let r = evaluate_on(
            turbo_runtime::global(),
            &Fp16Backend,
            &p,
            &TaskSuite::gsm8k_proxy(),
            &EvalConfig {
                episodes: 0,
                seed: 1,
            },
        );
        assert_eq!(r.accuracy, 0.0);
        assert_eq!(r.episodes, 0);
    }
}

//! Multi-hop document retrieval under attention approximation.
//!
//! Scenario: an agent follows a chain of cross-references through a
//! document index ("see section A → see table B → …"). Each hop is an
//! attention lookup over the same cached index, so KV-cache quantization
//! error compounds across hops exactly like chain-of-thought decoding.
//! Compares FP16, TurboAttention and KIVI end to end.

use turbo_model::backend::{Backend, Fp16Backend, KiviBackend, TurboBackend};
use turbo_model::{evaluate_on, EvalConfig, ModelProfile, RecallEpisode, TaskSuite};
use turbo_quant::BitWidth;
use turbo_tensor::TensorRng;

fn main() {
    let profile = ModelProfile::phi3_like();
    let suite = TaskSuite::bbh_proxy();

    // Walk one episode verbosely with each backend.
    let mut rng = TensorRng::new(99);
    let ep = RecallEpisode::generate_clustered(
        &mut rng,
        profile.vocab_size(),
        profile.cluster_size(),
        suite.n_pairs,
        suite.hops,
        suite.confusers,
    );
    println!(
        "episode: {} index entries, {}-hop chain, cue symbol #{}, answer #{}",
        ep.keys.len(),
        ep.hops,
        ep.cue,
        ep.answer
    );

    let backends: Vec<(&str, Box<dyn Backend>)> = vec![
        ("FP16", Box::new(Fp16Backend)),
        ("TurboAttention INT4", Box::new(TurboBackend::int4())),
        ("KIVI INT2", Box::new(KiviBackend::new(BitWidth::Int2))),
    ];

    for (name, backend) in &backends {
        let (ks, vs) = profile.episode_tensors(&ep, &mut TensorRng::new(123));
        let prepared = backend.prepare(&ks, &vs);
        let mut cur = ep.cue;
        print!("{name:>20}: #{cur}");
        for _ in 0..ep.hops {
            let qs = profile.query_rows(cur);
            let outs = prepared.query(&qs);
            cur = profile.decode(&outs);
            print!(" -> #{cur}");
        }
        println!(
            "   [{}]",
            if cur == ep.answer { "correct" } else { "WRONG" }
        );
    }

    // Aggregate accuracy over many episodes.
    println!("\naccuracy over 100 episodes ({}):", suite.name);
    let cfg = EvalConfig {
        episodes: 100,
        seed: 5,
    };
    for (name, backend) in &backends {
        let r = evaluate_on(turbo_runtime::global(), backend.as_ref(), &profile, &suite, &cfg);
        println!("  {name:>20}: {:.1}%", r.accuracy * 100.0);
    }
}

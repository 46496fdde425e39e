//! Model profiles: constructed attention geometries mimicking the QKV
//! distribution families of LLaMA3, Qwen2 and Phi-3 (Figure 4, Appendix D).
//!
//! ## Outlier construction
//!
//! Real transformer heads concentrate signal in a few high-magnitude
//! channels (Figure 4). The profiles reproduce this with **anisotropic
//! embeddings**: an outlier-bearing head's key (or value) vocabulary is
//! `normalize(D · e)` for a diagonal `D` that amplifies a few channels.
//! Those channels then carry most of the head's information, so
//! quantization error in them — which grows with the channel's range —
//! costs real accuracy. This is what makes the `gap × std` priority
//! metric (Equation 11) meaningful: it flags exactly the heads whose
//! channels are range-heavy, i.e. the fragile ones.
//!
//! Outlier heads are also the *reliable* retrieval heads (their values
//! carry less noise), mirroring the massive-activations literature;
//! demoting one to 2-bit therefore costs more than demoting a calm head.

use crate::outliers::ChannelOutliers;
use crate::tasks::RecallEpisode;
use crate::vocab::Vocabulary;
use crate::weight_quant::WeightQuant;
use turbo_tensor::{Matrix, TensorRng};

/// A synthetic model: per-head key/value vocabularies with anisotropic
/// outlier structure, plus score/noise calibration.
///
/// * LLaMA3-like — key anisotropy on half the heads, mild value outliers.
/// * Qwen2-like — stronger key anisotropy on most heads (hardest tasks).
/// * Phi3-like — pronounced **value** anisotropy (Appendix D) plus
///   moderate key outliers.
#[derive(Clone, Debug)]
pub struct ModelProfile {
    name: &'static str,
    n_heads: usize,
    head_dim: usize,
    vocab_size: usize,
    cluster_size: usize,
    score_temp: f32,
    value_noise: f32,
    seed: u64,
    k_tf: Vec<ChannelOutliers>,
    v_tf: Vec<ChannelOutliers>,
    k_vocabs: Vec<Vocabulary>,
    v_vocabs: Vec<Vocabulary>,
}

/// Shared geometry for the three paper-matched profiles.
const HEADS: usize = 8;
const HEAD_DIM: usize = 64;
const VOCAB: usize = 512;
/// Attention score of the matched key before softmax. High enough that
/// exact attention retrieves with near-certainty; low enough that
/// quantization error on scores can leak probability to distractors.
const SCORE_TEMP: f32 = 8.0;
/// Symbols per confusability cluster.
const CLUSTER: usize = 4;
/// Within-cluster cosine similarity: the decision margin is `1 − RHO`.
const RHO: f32 = 0.87;
/// Fraction of filler value rows that are amplitude outliers
/// (attention-sink-like tokens: harmless to exact retrieval, hostile to
/// group-quantization scales).
const V_TOKEN_OUTLIER_FRAC: f32 = 0.015;
/// Amplitude of those rows.
const V_TOKEN_OUTLIER_SCALE: f32 = 5.0;

impl ModelProfile {
    /// Fully custom profile.
    ///
    /// `k_outliers` / `v_outliers` give `(channels, scale)` per head
    /// (`None` = isotropic head).
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or outlier specs disagree with
    /// `n_heads`.
    #[allow(clippy::too_many_arguments)]
    pub fn custom(
        name: &'static str,
        n_heads: usize,
        head_dim: usize,
        vocab_size: usize,
        cluster_size: usize,
        rho: f32,
        score_temp: f32,
        value_noise: f32,
        seed: u64,
        k_outliers: &[Option<(usize, f32)>],
        v_outliers: &[Option<(usize, f32)>],
    ) -> Self {
        assert!(n_heads > 0 && head_dim > 0 && vocab_size > 1, "bad dims");
        assert_eq!(k_outliers.len(), n_heads, "one K outlier spec per head");
        assert_eq!(v_outliers.len(), n_heads, "one V outlier spec per head");
        let mut rng = TensorRng::new(seed);
        let base: Vec<Vocabulary> = (0..n_heads)
            .map(|_| {
                Vocabulary::random_clustered(vocab_size, head_dim, cluster_size, rho, &mut rng)
            })
            .collect();
        let mut build = |spec: &[Option<(usize, f32)>]| -> Vec<ChannelOutliers> {
            spec.iter()
                .map(|s| match s {
                    None => ChannelOutliers::identity(head_dim),
                    Some((count, scale)) => {
                        ChannelOutliers::random(head_dim, *count, *scale, &mut rng)
                    }
                })
                .collect()
        };
        let k_tf = build(k_outliers);
        let v_tf = build(v_outliers);
        let k_vocabs = base
            .iter()
            .zip(&k_tf)
            .map(|(v, tf)| Vocabulary::from_embeddings(tf.apply_and_renormalize(v.embeddings())))
            .collect();
        // Value vocabularies keep their raw transformed magnitudes: value
        // channel outliers are amplitude outliers in the cache (Figure 9),
        // and decode compensates by scoring with cosine similarity.
        let v_vocabs = base
            .iter()
            .zip(&v_tf)
            .map(|(v, tf)| Vocabulary::from_embeddings(tf.apply(v.embeddings())))
            .collect();
        Self {
            name,
            n_heads,
            head_dim,
            vocab_size,
            cluster_size,
            score_temp,
            value_noise,
            seed,
            k_tf,
            v_tf,
            k_vocabs,
            v_vocabs,
        }
    }

    /// LLaMA3-8B-like profile: key anisotropy on half the heads and mild
    /// value outliers (Figure 8).
    pub fn llama3_like() -> Self {
        let k: Vec<_> = (0..HEADS)
            .map(|h| if h % 2 == 0 { Some((4, 5.0)) } else { None })
            .collect();
        // Outlier heads carry both key and value anisotropy, as real
        // massive-activation heads do.
        let v: Vec<_> = (0..HEADS)
            .map(|h| if h % 2 == 0 { Some((5, 12.0)) } else { None })
            .collect();
        Self::custom(
            "LLaMA3-8B-like",
            HEADS,
            HEAD_DIM,
            VOCAB,
            CLUSTER,
            RHO,
            SCORE_TEMP,
            0.22,
            0xA11A,
            &k,
            &v,
        )
    }

    /// Qwen2-7B-like profile: strong key anisotropy on most heads and
    /// mild value outliers.
    pub fn qwen2_like() -> Self {
        let k: Vec<_> = (0..HEADS)
            .map(|h| if h < 6 { Some((3, 6.0)) } else { None })
            .collect();
        let v: Vec<_> = (0..HEADS)
            .map(|h| if h < 6 { Some((5, 12.0)) } else { None })
            .collect();
        Self::custom(
            "Qwen2-7B-like",
            HEADS,
            HEAD_DIM,
            VOCAB,
            CLUSTER,
            RHO,
            SCORE_TEMP,
            0.26,
            0x90E2,
            &k,
            &v,
        )
    }

    /// Phi3-mini-like profile: pronounced value-cache channel outliers
    /// (Appendix D) plus moderate key outliers.
    pub fn phi3_like() -> Self {
        let k: Vec<_> = (0..HEADS)
            .map(|h| if h % 2 == 0 { Some((3, 4.0)) } else { None })
            .collect();
        let v: Vec<_> = (0..HEADS)
            .map(|h| if h % 2 == 0 { Some((6, 16.0)) } else { None })
            .collect();
        Self::custom(
            "Phi3-mini-like",
            HEADS,
            HEAD_DIM,
            VOCAB,
            CLUSTER,
            RHO,
            SCORE_TEMP,
            0.18,
            0x9413,
            &k,
            &v,
        )
    }

    /// The three paper-matched profiles in Table 2 order.
    pub fn paper_profiles() -> Vec<ModelProfile> {
        vec![Self::llama3_like(), Self::qwen2_like(), Self::phi3_like()]
    }

    /// Profile name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of attention heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Per-head channel dimension.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Symbols per confusability cluster.
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// The per-head value transforms.
    pub fn value_transform(&self, h: usize) -> &ChannelOutliers {
        &self.v_tf[h]
    }

    /// Score magnitude of the matched key.
    pub fn score_temp(&self) -> f32 {
        self.score_temp
    }

    /// Returns a copy whose vocabulary embeddings (the "weights") are
    /// fake-quantized per the given scheme — the Table 5 integration
    /// experiment with LLM.int8/Qserve-style weight quantization.
    pub fn with_weight_quant(&self, wq: WeightQuant) -> Self {
        let mut out = self.clone();
        let quantize = |vs: &[Vocabulary]| -> Vec<Vocabulary> {
            vs.iter()
                .map(|v| Vocabulary::from_embeddings(wq.apply(v.embeddings())))
                .collect()
        };
        out.k_vocabs = quantize(&out.k_vocabs);
        out.v_vocabs = quantize(&out.v_vocabs);
        out
    }

    /// Per-head value-noise level. Outlier-bearing heads are the precise
    /// retrieval heads; calm heads carry noisier values, so demoting a
    /// precise head to 2-bit costs accuracy while demoting a calm head is
    /// nearly free — the asymmetry the priority metric exploits.
    fn head_value_noise(&self, h: usize) -> f32 {
        if self.k_tf[h].is_identity() {
            self.value_noise * 1.4
        } else {
            self.value_noise
        }
    }

    /// Query/key embedding scale: matched score = `score_temp` after the
    /// `1/√d` attention normalization (embeddings are unit-norm).
    fn qk_scale(&self) -> f32 {
        (self.score_temp * (self.head_dim as f32).sqrt()).sqrt()
    }

    /// Builds the per-head `(K, V)` tensors of an episode. `noise_rng`
    /// drives the additive value noise and token-outlier draws.
    pub fn episode_tensors(
        &self,
        ep: &RecallEpisode,
        noise_rng: &mut TensorRng,
    ) -> (Vec<Matrix>, Vec<Matrix>) {
        let a = self.qk_scale();
        let n = ep.keys.len();
        // Pick amplitude-outlier rows once (consistent across heads).
        // Eligible rows are *filler* pairs only — keys from clusters the
        // chain never touches, whose attention weight is ~e^{-temp} — so
        // exact retrieval is unaffected while group-quantization scales
        // are inflated.
        let chain: Vec<usize> = ep.chain_pair_indices();
        let chain_clusters: Vec<usize> = chain
            .iter()
            .map(|&i| ep.keys[i] / self.cluster_size)
            .collect();
        let token_scale: Vec<f32> = (0..n)
            .map(|i| {
                let filler = !chain_clusters.contains(&(ep.keys[i] / self.cluster_size));
                if filler && noise_rng.uniform_value(0.0, 1.0) < V_TOKEN_OUTLIER_FRAC {
                    V_TOKEN_OUTLIER_SCALE
                } else {
                    1.0
                }
            })
            .collect();
        let mut ks = Vec::with_capacity(self.n_heads);
        let mut vs = Vec::with_capacity(self.n_heads);
        for h in 0..self.n_heads {
            let noise = self.head_value_noise(h);
            let mut k = Matrix::zeros(n, self.head_dim);
            let mut v = Matrix::zeros(n, self.head_dim);
            for (i, (&key, &val)) in ep.keys.iter().zip(&ep.values).enumerate() {
                for (c, &e) in self.k_vocabs[h].embedding(key).iter().enumerate() {
                    k.set(i, c, e * a);
                }
                for (c, &e) in self.v_vocabs[h].embedding(val).iter().enumerate() {
                    v.set(
                        i,
                        c,
                        (e + noise * noise_rng.standard_normal()) * token_scale[i],
                    );
                }
            }
            ks.push(k);
            vs.push(v);
        }
        (ks, vs)
    }

    /// Per-head query rows for cue `symbol` (queries and keys share the
    /// anisotropic per-head embedding space).
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is out of vocabulary range.
    pub fn query_rows(&self, symbol: usize) -> Vec<Vec<f32>> {
        assert!(symbol < self.vocab_size, "symbol out of range");
        let a = self.qk_scale();
        (0..self.n_heads)
            .map(|h| {
                self.k_vocabs[h]
                    .embedding(symbol)
                    .iter()
                    .map(|&x| x * a)
                    .collect()
            })
            .collect()
    }

    /// Decodes per-head attention outputs to a symbol: per-head logits
    /// against that head's value vocabulary, summed, then argmax (the
    /// `W_o` + LM-head role).
    ///
    /// # Panics
    ///
    /// Panics if the output count or widths disagree with the profile.
    pub fn decode(&self, outs: &[Vec<f32>]) -> usize {
        assert_eq!(outs.len(), self.n_heads, "one output row per head");
        let mut logits = vec![0.0f32; self.vocab_size];
        for (out, vocab) in outs.iter().zip(&self.v_vocabs) {
            assert_eq!(out.len(), self.head_dim, "output width mismatch");
            let emb = vocab.embeddings();
            for (s, logit) in logits.iter_mut().enumerate() {
                let row = emb.row(s);
                let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
                let dot: f32 = row.iter().zip(out).map(|(a, b)| a * b).sum();
                // Cosine scoring: value embeddings are not unit norm
                // (channel outliers), so normalize the embedding side.
                *logit += dot / norm.max(1e-12);
            }
        }
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("non-finite logit"))
            .map(|(s, _)| s)
            .expect("empty vocabulary")
    }

    /// Calibration key activations for head `h` — `tokens` rows of
    /// random-symbol keys, used for head-priority statistics and the
    /// Figure 4 channel-distribution plots.
    pub fn calibration_keys(&self, h: usize, tokens: usize) -> Matrix {
        let mut rng = TensorRng::new(self.seed ^ (h as u64) << 32 ^ 0xCA11);
        let a = self.qk_scale();
        let mut k = Matrix::zeros(tokens, self.head_dim);
        for t in 0..tokens {
            let s = rng.index(self.vocab_size);
            for (c, &e) in self.k_vocabs[h].embedding(s).iter().enumerate() {
                k.set(t, c, e * a);
            }
        }
        k
    }

    /// Calibration value activations for head `h` (Figures 8–9).
    pub fn calibration_values(&self, h: usize, tokens: usize) -> Matrix {
        let mut rng = TensorRng::new(self.seed ^ (h as u64) << 32 ^ 0x7A1E);
        let noise = self.head_value_noise(h);
        let mut v = Matrix::zeros(tokens, self.head_dim);
        for t in 0..tokens {
            let s = rng.index(self.vocab_size);
            for (c, &e) in self.v_vocabs[h].embedding(s).iter().enumerate() {
                v.set(t, c, e + noise * rng.standard_normal());
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::TaskSuite;

    #[test]
    fn paper_profiles_have_expected_shapes() {
        for p in ModelProfile::paper_profiles() {
            assert_eq!(p.n_heads(), 8);
            assert_eq!(p.head_dim(), 64);
            assert_eq!(p.vocab_size(), 512);
        }
    }

    #[test]
    fn exact_attention_solves_single_hop() {
        // Sanity: with exact f32 attention the construction retrieves the
        // right value essentially always.
        let p = ModelProfile::llama3_like();
        let suite = TaskSuite::gsm8k_proxy();
        let mut rng = TensorRng::new(7);
        let mut correct = 0;
        let trials = 20;
        for _ in 0..trials {
            let ep = RecallEpisode::generate_clustered(
                &mut rng,
                p.vocab_size(),
                p.cluster_size(),
                suite.n_pairs,
                1,
                suite.confusers,
            );
            let (ks, vs) = p.episode_tensors(&ep, &mut rng);
            let qs = p.query_rows(ep.cue);
            let outs: Vec<Vec<f32>> = (0..p.n_heads())
                .map(|h| {
                    let q = Matrix::from_vec(1, p.head_dim(), qs[h].clone());
                    let o = turbo_attention::naive_attention(
                        &q,
                        &ks[h],
                        &vs[h],
                        turbo_attention::Masking::Full,
                    );
                    o.row(0).to_vec()
                })
                .collect();
            if p.decode(&outs) == ep.answer {
                correct += 1;
            }
        }
        assert!(correct >= trials - 2, "exact accuracy {correct}/{trials}");
    }

    #[test]
    fn query_key_scores_hit_the_temperature() {
        let p = ModelProfile::qwen2_like();
        let ep =
            RecallEpisode::generate_clustered(&mut TensorRng::new(1), p.vocab_size(), 4, 16, 1, 1);
        let mut noise = TensorRng::new(2);
        let (ks, _) = p.episode_tensors(&ep, &mut noise);
        let qs = p.query_rows(ep.keys[3]);
        for h in 0..p.n_heads() {
            let dot: f32 = qs[h].iter().zip(ks[h].row(3)).map(|(a, b)| a * b).sum();
            let score = dot / (p.head_dim() as f32).sqrt();
            assert!(
                (score - p.score_temp()).abs() < 0.05,
                "head {h} matched score {score}"
            );
        }
    }

    #[test]
    fn calibration_keys_reflect_outlier_structure() {
        let p = ModelProfile::llama3_like();
        // Head 0 is anisotropic, head 1 is not.
        let s0 = turbo_attention::HeadStats::from_activations(&p.calibration_keys(0, 256));
        let s1 = turbo_attention::HeadStats::from_activations(&p.calibration_keys(1, 256));
        assert!(
            s0.priority() > 2.0 * s1.priority(),
            "priority {} vs {}",
            s0.priority(),
            s1.priority()
        );
    }

    #[test]
    fn anisotropic_heads_are_more_quantization_fragile() {
        // Channelwise INT2 on the key tensor must perturb an anisotropic
        // head's scores more than an isotropic head's (the matched-score
        // magnitude is identical by construction).
        use turbo_quant::asymmetric::fake_quant_channelwise;
        use turbo_quant::BitWidth;
        let p = ModelProfile::llama3_like();
        let score_err = |h: usize| {
            let k = p.calibration_keys(h, 128);
            let kq = fake_quant_channelwise(&k, BitWidth::Int2, 64);
            let q = p.query_rows(42)[h].clone();
            let mut worst = 0.0f32;
            for t in 0..128 {
                let exact: f32 = q.iter().zip(k.row(t)).map(|(a, b)| a * b).sum();
                let approx: f32 = q.iter().zip(kq.row(t)).map(|(a, b)| a * b).sum();
                worst = worst.max((exact - approx).abs());
            }
            worst
        };
        let aniso = score_err(0);
        let iso = score_err(1);
        assert!(
            aniso > 1.3 * iso,
            "anisotropic err {aniso} vs isotropic {iso}"
        );
    }

    #[test]
    fn weight_quant_changes_embeddings_slightly() {
        let p = ModelProfile::llama3_like();
        let pq = p.with_weight_quant(WeightQuant::Int8PerChannel);
        let a = p.k_vocabs[0].embeddings();
        let b = pq.k_vocabs[0].embeddings();
        assert_ne!(a, b);
        assert!(turbo_tensor::relative_error(b, a) < 0.02);
    }

    #[test]
    fn decode_recovers_clean_embeddings() {
        let p = ModelProfile::phi3_like();
        let sym = 42;
        let outs: Vec<Vec<f32>> = (0..p.n_heads())
            .map(|h| p.v_vocabs[h].embedding(sym).to_vec())
            .collect();
        assert_eq!(p.decode(&outs), sym);
    }
}

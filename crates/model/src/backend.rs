//! Pluggable attention backends — one per row of Table 2 / Table 4.
//!
//! A backend turns per-head `(K, V)` tensors into a prepared (possibly
//! compressed) cache once, then serves any number of single-row queries
//! against it. The baselines' window/group sizes are scaled to the
//! synthetic context so the full-precision residual protects the same
//! ~6 % of tokens it does in the paper's 1k-token runs, preserving each
//! method's accuracy mechanism at this scale.

use turbo_attention::{
    select_two_bit_heads, turbo_attend_cache, HeadStats, Masking, SelectionMethod, TurboConfig,
};
use turbo_baselines::{
    Fp16Cache, Fp8Cache, GearCache, GearConfig, KiviCache, KiviConfig, KvCompressor,
};
use turbo_kvcache::{HeadKvCache, KvCacheConfig};
use turbo_quant::{BitWidth, SymQuantized};
use turbo_softmax::Sas;
use turbo_tensor::{matmul_f16, Matrix};

/// A prepared per-episode attention cache serving single-row queries.
pub trait PreparedAttention {
    /// Attends one query row per head, returning one output row per head.
    fn query(&self, qs: &[Vec<f32>]) -> Vec<Vec<f32>>;
}

/// An attention method under evaluation.
///
/// `Sync` is required so the evaluation harness can fan episodes out
/// across threads; backends are immutable after construction.
pub trait Backend: Sync {
    /// Row label, e.g. `"TurboAttention(mixed)"`.
    fn name(&self) -> String;

    /// Average KV-cache bits label for the table's "Bit" column.
    fn bits_label(&self) -> String;

    /// Builds the per-episode cache from per-head `(K, V)` tensors.
    fn prepare(&self, ks: &[Matrix], vs: &[Matrix]) -> Box<dyn PreparedAttention>;
}

/// Exact FP16 attention for one query row (the kernel every dequantizing
/// baseline ultimately runs).
fn attend_f16(q: &[f32], k: &Matrix, v: &Matrix) -> Vec<f32> {
    let qm = Matrix::from_vec(1, q.len(), q.to_vec());
    turbo_attention::flash_attention_f16(&qm, k, v, Masking::Full, 1, 64)
        .row(0)
        .to_vec()
}

// ---------------------------------------------------------------- FP16 --

/// The dense FP16 baseline.
#[derive(Clone, Debug, Default)]
pub struct Fp16Backend;

struct PreparedFp16 {
    kv: Vec<(Matrix, Matrix)>,
}

impl Backend for Fp16Backend {
    fn name(&self) -> String {
        "FP16".into()
    }

    fn bits_label(&self) -> String {
        "16".into()
    }

    fn prepare(&self, ks: &[Matrix], vs: &[Matrix]) -> Box<dyn PreparedAttention> {
        let kv = ks
            .iter()
            .zip(vs)
            .map(|(k, v)| {
                let mut cache = Fp16Cache::new(k.cols());
                for t in 0..k.rows() {
                    cache.append(k.row(t), v.row(t));
                }
                cache.materialize()
            })
            .collect();
        Box::new(PreparedFp16 { kv })
    }
}

impl PreparedAttention for PreparedFp16 {
    fn query(&self, qs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        qs.iter()
            .zip(&self.kv)
            .map(|(q, (k, v))| attend_f16(q, k, v))
            .collect()
    }
}

// -------------------------------------------------------------- SAS-only --

/// FP16 K/V with SAS softmax — isolates the softmax approximation
/// (Table 4's "SAS" row).
#[derive(Clone, Debug)]
pub struct SasOnlyBackend {
    sas: Sas,
}

impl Default for SasOnlyBackend {
    fn default() -> Self {
        Self {
            sas: Sas::paper_default(),
        }
    }
}

struct PreparedSasOnly {
    kv: Vec<(Matrix, Matrix)>,
    sas: Sas,
}

impl Backend for SasOnlyBackend {
    fn name(&self) -> String {
        "SAS".into()
    }

    fn bits_label(&self) -> String {
        "16".into()
    }

    fn prepare(&self, ks: &[Matrix], vs: &[Matrix]) -> Box<dyn PreparedAttention> {
        let kv = ks
            .iter()
            .zip(vs)
            .map(|(k, v)| {
                (
                    k.map(turbo_tensor::round_f16),
                    v.map(turbo_tensor::round_f16),
                )
            })
            .collect();
        Box::new(PreparedSasOnly {
            kv,
            sas: self.sas.clone(),
        })
    }
}

impl PreparedAttention for PreparedSasOnly {
    fn query(&self, qs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        qs.iter()
            .zip(&self.kv)
            .map(|(q, (k, v))| {
                let d = q.len();
                let qm = Matrix::from_vec(1, d, q.clone());
                let mut s = matmul_f16(&qm, &k.transpose());
                s.scale_in_place(1.0 / (d as f32).sqrt());
                let p = self
                    .sas
                    .try_softmax(&s)
                    .expect("scores of finite rows are finite");
                matmul_f16(&p, v).row(0).to_vec()
            })
            .collect()
    }
}

// ---------------------------------------------------------------- Turbo --

/// TurboAttention: FlashQ-quantized KV cache + (optionally) SAS.
#[derive(Clone, Debug)]
pub struct TurboBackend {
    label: String,
    config: TurboConfig,
    /// `Some((n, method))` → head-wise mixed precision demoting `n` heads.
    mixed: Option<(usize, SelectionMethod)>,
    sas: Sas,
}

impl TurboBackend {
    /// Uniform INT4 KV cache with paper-default SAS.
    pub fn int4() -> Self {
        Self::uniform("TurboAttention", BitWidth::Int4, Sas::paper_default())
    }

    /// Uniform INT3 KV cache (the bit-matched comparison point for the
    /// 3-bit baselines of Table 2).
    pub fn int3() -> Self {
        Self::uniform("TurboAttention(3bit)", BitWidth::Int3, Sas::paper_default())
    }

    /// Uniform INT2 KV cache (the aggressive appendix setting).
    pub fn int2() -> Self {
        Self::uniform("TurboAttention(2bit)", BitWidth::Int2, Sas::paper_default())
    }

    /// Head-wise mixed 2/4-bit with the paper's priority metric.
    pub fn mixed(n_two_bit: usize) -> Self {
        Self::mixed_with(n_two_bit, SelectionMethod::Priority)
    }

    /// Head-wise mixed 2/4-bit with an explicit selection method
    /// (Figure 7b ablation).
    pub fn mixed_with(n_two_bit: usize, method: SelectionMethod) -> Self {
        let mut b = Self::uniform(
            "TurboAttention(mixed)",
            BitWidth::Int4,
            Sas::paper_default(),
        );
        b.mixed = Some((n_two_bit, method));
        b
    }

    /// FlashQ INT4 with *exact* exponentiation — isolates quantization
    /// error from SAS error (Table 4's "FlashQ-4bit" row).
    pub fn flashq_only() -> Self {
        Self::uniform("FlashQ-4bit", BitWidth::Int4, Sas::exact_reference())
    }

    /// Builds a uniform-precision backend with the given SAS evaluator.
    pub fn uniform(label: &str, bits: BitWidth, sas: Sas) -> Self {
        let config = TurboConfig {
            kv_bits: bits,
            // Scaled to the synthetic context (dozens of pairs, not 1k
            // tokens): tile and group sizes of 16.
            block_r: 16,
            block_c: 16,
            group_size: 16,
            buffer_capacity: 16,
            ..TurboConfig::default()
        };
        Self {
            label: label.to_string(),
            config,
            mixed: None,
            sas,
        }
    }

    /// Overrides the engine configuration (block-size ablations).
    pub fn with_config(mut self, config: TurboConfig) -> Self {
        self.config = config;
        self
    }
}

struct PreparedTurbo {
    caches: Vec<HeadKvCache>,
    sas: Sas,
}

impl Backend for TurboBackend {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn bits_label(&self) -> String {
        match self.mixed {
            Some((n, _)) => {
                if n == 0 {
                    "4".into()
                } else {
                    "2/4".into()
                }
            }
            None => self.config.kv_bits.bits().to_string(),
        }
    }

    fn prepare(&self, ks: &[Matrix], vs: &[Matrix]) -> Box<dyn PreparedAttention> {
        let bits: Vec<BitWidth> = match self.mixed {
            None => vec![self.config.kv_bits; ks.len()],
            Some((n, method)) => {
                let stats: Vec<HeadStats> = ks.iter().map(HeadStats::from_activations).collect();
                select_two_bit_heads(&stats, n, method)
            }
        };
        let caches = ks
            .iter()
            .zip(vs)
            .zip(&bits)
            .map(|((k, v), &b)| {
                let mut cache = HeadKvCache::new(
                    k.cols(),
                    KvCacheConfig {
                        bits: b,
                        group_size: self.config.group_size,
                        buffer_capacity: self.config.buffer_capacity,
                    },
                );
                let tiles: Vec<_> = k
                    .row_blocks(self.config.block_c)
                    .map(|(start, k_blk)| {
                        let v_blk = v.row_block(start, k_blk.rows());
                        (
                            SymQuantized::quantize(&k_blk),
                            SymQuantized::quantize(&v_blk),
                        )
                    })
                    .collect();
                cache.append_prefill_blocks(tiles.iter().map(|(k8, v8)| (k8, v8)));
                cache
            })
            .collect();
        Box::new(PreparedTurbo {
            caches,
            sas: self.sas.clone(),
        })
    }
}

impl PreparedAttention for PreparedTurbo {
    fn query(&self, qs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        qs.iter()
            .zip(&self.caches)
            .map(|(q, cache)| turbo_attend_cache(q, cache, &self.sas))
            .collect()
    }
}

// ------------------------------------------------------------------ FP8 --

/// FP8 (E4M3) KV-cache baseline — the Hopper-era simple competitor.
#[derive(Clone, Debug, Default)]
pub struct Fp8Backend;

impl Backend for Fp8Backend {
    fn name(&self) -> String {
        "FP8(E4M3)".into()
    }

    fn bits_label(&self) -> String {
        "8".into()
    }

    fn prepare(&self, ks: &[Matrix], vs: &[Matrix]) -> Box<dyn PreparedAttention> {
        let kv = ks
            .iter()
            .zip(vs)
            .map(|(k, v)| {
                let mut cache = Fp8Cache::new(k.cols());
                for t in 0..k.rows() {
                    cache.append(k.row(t), v.row(t));
                }
                cache.materialize()
            })
            .collect();
        Box::new(PreparedDequant { kv })
    }
}

// ----------------------------------------------------------- KIVI / GEAR --

/// The KIVI baseline at a given bit width.
#[derive(Clone, Debug)]
pub struct KiviBackend {
    config: KiviConfig,
}

impl KiviBackend {
    /// KIVI with context-scaled grouping: the paper runs `g = n_b = 64`
    /// on ~1.1k-token contexts (a ~6 % full-precision residual); at our
    /// ~50-70-pair episodes the same ratio gives `g = 8`, `n_b = 4`.
    pub fn new(bits: BitWidth) -> Self {
        Self {
            config: KiviConfig {
                bits,
                group: 8,
                residual: 4,
            },
        }
    }
}

/// The GEAR-L baseline at a given bit width (rank 4).
#[derive(Clone, Debug)]
pub struct GearBackend {
    config: GearConfig,
}

impl GearBackend {
    /// GEAR-L with context-scaled grouping (see [`KiviBackend::new`]) and
    /// the paper's rank 4.
    pub fn new(bits: BitWidth) -> Self {
        Self {
            config: GearConfig {
                bits,
                rank: 4,
                group: 8,
                residual: 4,
            },
        }
    }
}

struct PreparedDequant {
    kv: Vec<(Matrix, Matrix)>,
}

impl PreparedAttention for PreparedDequant {
    fn query(&self, qs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        qs.iter()
            .zip(&self.kv)
            .map(|(q, (k, v))| attend_f16(q, k, v))
            .collect()
    }
}

impl Backend for KiviBackend {
    fn name(&self) -> String {
        "KIVI".into()
    }

    fn bits_label(&self) -> String {
        self.config.bits.bits().to_string()
    }

    fn prepare(&self, ks: &[Matrix], vs: &[Matrix]) -> Box<dyn PreparedAttention> {
        let kv = ks
            .iter()
            .zip(vs)
            .map(|(k, v)| {
                let mut cache = KiviCache::new(k.cols(), self.config);
                for t in 0..k.rows() {
                    cache.append(k.row(t), v.row(t));
                }
                cache.materialize()
            })
            .collect();
        Box::new(PreparedDequant { kv })
    }
}

impl Backend for GearBackend {
    fn name(&self) -> String {
        "GEAR-L".into()
    }

    fn bits_label(&self) -> String {
        self.config.bits.bits().to_string()
    }

    fn prepare(&self, ks: &[Matrix], vs: &[Matrix]) -> Box<dyn PreparedAttention> {
        let kv = ks
            .iter()
            .zip(vs)
            .map(|(k, v)| {
                let mut cache = GearCache::new(k.cols(), self.config);
                for t in 0..k.rows() {
                    cache.append(k.row(t), v.row(t));
                }
                cache.materialize()
            })
            .collect();
        Box::new(PreparedDequant { kv })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_tensor::TensorRng;

    fn heads(seed: u64, h: usize, n: usize, d: usize) -> Vec<Matrix> {
        let mut rng = TensorRng::new(seed);
        (0..h).map(|_| rng.normal(n, d, 0.0, 1.0)).collect()
    }

    fn all_backends() -> Vec<Box<dyn Backend>> {
        vec![
            Box::new(Fp16Backend),
            Box::new(SasOnlyBackend::default()),
            Box::new(TurboBackend::int4()),
            Box::new(TurboBackend::mixed(4)),
            Box::new(TurboBackend::flashq_only()),
            Box::new(KiviBackend::new(BitWidth::Int4)),
            Box::new(GearBackend::new(BitWidth::Int4)),
        ]
    }

    #[test]
    fn every_backend_approximates_exact_attention() {
        let ks = heads(1, 4, 40, 16);
        let vs = heads(2, 4, 40, 16);
        let qs: Vec<Vec<f32>> = heads(3, 4, 1, 16)
            .into_iter()
            .map(|m| m.row(0).to_vec())
            .collect();
        // Exact reference per head.
        let exact: Vec<Vec<f32>> = (0..4)
            .map(|h| {
                let q = Matrix::from_vec(1, 16, qs[h].clone());
                turbo_attention::naive_attention(&q, &ks[h], &vs[h], Masking::Full)
                    .row(0)
                    .to_vec()
            })
            .collect();
        for b in all_backends() {
            // 2-bit heads are legitimately coarse; everything else must be
            // a close approximation.
            let tol = if b.name().contains("mixed") { 0.8 } else { 0.3 };
            let prepared = b.prepare(&ks, &vs);
            let outs = prepared.query(&qs);
            assert_eq!(outs.len(), 4, "{}", b.name());
            for h in 0..4 {
                for (a, e) in outs[h].iter().zip(&exact[h]) {
                    assert!((a - e).abs() < tol, "{} head {h}: {a} vs {e}", b.name());
                }
            }
        }
    }

    #[test]
    fn bits_labels_match_table_2() {
        assert_eq!(Fp16Backend.bits_label(), "16");
        assert_eq!(TurboBackend::int4().bits_label(), "4");
        assert_eq!(TurboBackend::mixed(4).bits_label(), "2/4");
        assert_eq!(KiviBackend::new(BitWidth::Int3).bits_label(), "3");
        assert_eq!(GearBackend::new(BitWidth::Int2).bits_label(), "2");
    }

    #[test]
    fn fp16_is_the_most_accurate_backend() {
        let ks = heads(4, 2, 48, 32);
        let vs = heads(5, 2, 48, 32);
        let qs: Vec<Vec<f32>> = heads(6, 2, 1, 32)
            .into_iter()
            .map(|m| m.row(0).to_vec())
            .collect();
        let exact: Vec<Vec<f32>> = (0..2)
            .map(|h| {
                let q = Matrix::from_vec(1, 32, qs[h].clone());
                turbo_attention::naive_attention(&q, &ks[h], &vs[h], Masking::Full)
                    .row(0)
                    .to_vec()
            })
            .collect();
        let err = |b: &dyn Backend| {
            let outs = b.prepare(&ks, &vs).query(&qs);
            outs.iter()
                .zip(&exact)
                .flat_map(|(o, e)| o.iter().zip(e).map(|(a, b)| ((a - b) as f64).powi(2)))
                .sum::<f64>()
        };
        let e_fp16 = err(&Fp16Backend);
        let e_turbo2 = err(&TurboBackend::int2());
        assert!(e_fp16 < e_turbo2);
    }

    #[test]
    fn mixed_precision_prepares_requested_bit_split() {
        // Build heads where the first two have far larger ranges.
        let mut rng = TensorRng::new(7);
        let mut ks = Vec::new();
        for h in 0..4 {
            let m = if h < 2 {
                rng.normal_with_channel_outliers(32, 16, 1.0, &[1, 9], 20.0)
            } else {
                rng.normal(32, 16, 0.0, 1.0)
            };
            ks.push(m);
        }
        let vs = heads(8, 4, 32, 16);
        let backend = TurboBackend::mixed(2);
        // Indirectly verify via accuracy asymmetry: prepared caches exist
        // and queries succeed (bit assignment is tested in turbo-attention).
        let outs = backend.prepare(&ks, &vs).query(
            &heads(9, 4, 1, 16)
                .into_iter()
                .map(|m| m.row(0).to_vec())
                .collect::<Vec<_>>(),
        );
        assert_eq!(outs.len(), 4);
    }
}

// ----------------------------------------------------------- QuaRot+Turbo --

/// TurboAttention composed with a QuaRot-style Hadamard rotation of
/// queries and keys — Table 1's "orthogonal techniques" claim, realized:
/// exact scores are invariant under the rotation, while key-channel
/// outliers are smeared before quantization.
#[derive(Clone, Debug)]
pub struct QuarotTurboBackend {
    inner: TurboBackend,
}

impl QuarotTurboBackend {
    /// QuaRot rotation + uniform INT4 TurboAttention.
    pub fn int4() -> Self {
        Self {
            inner: TurboBackend::int4(),
        }
    }

    /// QuaRot rotation + uniform INT2 TurboAttention (where smearing
    /// matters most).
    pub fn int2() -> Self {
        Self {
            inner: TurboBackend::int2(),
        }
    }
}

struct PreparedQuarot {
    inner: Box<dyn PreparedAttention>,
}

impl Backend for QuarotTurboBackend {
    fn name(&self) -> String {
        format!("QuaRot+{}", self.inner.name())
    }

    fn bits_label(&self) -> String {
        self.inner.bits_label()
    }

    fn prepare(&self, ks: &[Matrix], vs: &[Matrix]) -> Box<dyn PreparedAttention> {
        let rotated: Vec<Matrix> = ks.iter().map(turbo_quant::hadamard_rotate).collect();
        Box::new(PreparedQuarot {
            inner: self.inner.prepare(&rotated, vs),
        })
    }
}

impl PreparedAttention for PreparedQuarot {
    fn query(&self, qs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let rotated: Vec<Vec<f32>> = qs
            .iter()
            .map(|q| {
                let mut r = q.clone();
                turbo_quant::fht(&mut r);
                r
            })
            .collect();
        self.inner.query(&rotated)
    }
}

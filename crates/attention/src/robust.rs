//! Fault-tolerant attention: numeric guards and the graceful precision
//! degradation ladder **INT2 → INT4 → INT8 → FP16**.
//!
//! The quantized fast path trades representable range for throughput. When
//! a numeric fault is detected — NaN/Inf in an input row, a quantization
//! scale overflow, a non-finite attention output — the engine does not
//! panic: it records the event in a [`HealthStats`] registry, promotes the
//! affected head cache one rung up the ladder (rebuilding it losslessly
//! from its own dequantized contents), and retries. The top rung keeps raw
//! floating-point K/V (the "FP16" tier of the paper's memory accounting,
//! stored as f32 here) and computes exact attention, so the ladder always
//! terminates with an answer for finite inputs.
//!
//! Non-finite *elements* in inputs are sanitized to `0.0` (the value a
//! masked/sparsified score contributes) rather than rejected, so a single
//! flipped bit upstream degrades one channel instead of killing the
//! request.

use crate::api::{TurboAttention, TurboConfig};
use crate::decode::turbo_attend_cache;
use crate::prefill::turbo_prefill_head;
use crate::reference::{naive_attention, Masking};
use turbo_kvcache::{CacheError, HeadKvCache, KvCacheConfig};
use turbo_quant::{BitWidth, QuantError};
use turbo_robust::{HealthEvent, HealthStats};
use turbo_softmax::SoftmaxError;
use turbo_tensor::Matrix;

/// Inputs whose magnitude exceeds this bound skip the quantized prefill
/// path entirely: the progressive quantizer's outer scale would overflow.
/// `f32::MAX / 512` leaves headroom for the `× headroom / divisor` scale
/// arithmetic of every stage.
pub const QUANT_SAFE_MAX: f32 = f32::MAX / 512.0;

/// Decode-buffer capacity used at the INT8 rung: large enough that the
/// buffer never reaches it, so tokens stay INT8 forever instead of being
/// second-stage compressed to INT4/2.
const INT8_RESIDENT_CAPACITY: usize = usize::MAX / 2;

/// Unified error type of the fault-tolerant attention paths.
///
/// Wraps the per-layer errors (cache, quantizer, softmax) plus the shape
/// violations the robust engine screens itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttnError {
    /// A query/key/value row had the wrong number of channels.
    WidthMismatch {
        /// Channels the cache was built for.
        expected: usize,
        /// Channels the caller supplied.
        got: usize,
    },
    /// Q/K/V tensors disagree in shape.
    ShapeMismatch,
    /// Prefill requires an empty cache.
    NonEmptyCache,
    /// Attending requires a non-empty cache.
    EmptyCache,
    /// Every rung of the ladder failed (not reachable for finite inputs —
    /// the FP16 rung is exact).
    LadderExhausted,
    /// A cache operation failed.
    Cache(CacheError),
    /// Quantization failed.
    Quant(QuantError),
    /// Softmax could not produce a distribution.
    Softmax(SoftmaxError),
}

impl std::fmt::Display for AttnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttnError::WidthMismatch { expected, got } => {
                write!(f, "attention width mismatch: expected {expected} channels, got {got}")
            }
            AttnError::ShapeMismatch => write!(f, "Q/K/V shape mismatch"),
            AttnError::NonEmptyCache => write!(f, "prefill requires an empty cache"),
            AttnError::EmptyCache => write!(f, "cannot attend to an empty cache"),
            AttnError::LadderExhausted => write!(f, "precision ladder exhausted"),
            AttnError::Cache(e) => write!(f, "cache: {e}"),
            AttnError::Quant(e) => write!(f, "quant: {e}"),
            AttnError::Softmax(e) => write!(f, "softmax: {e}"),
        }
    }
}

impl std::error::Error for AttnError {}

impl From<CacheError> for AttnError {
    fn from(e: CacheError) -> Self {
        AttnError::Cache(e)
    }
}

impl From<QuantError> for AttnError {
    fn from(e: QuantError) -> Self {
        AttnError::Quant(e)
    }
}

impl From<SoftmaxError> for AttnError {
    fn from(e: SoftmaxError) -> Self {
        AttnError::Softmax(e)
    }
}

/// One rung of the precision degradation ladder, lowest (most compressed)
/// first. "FP16" follows the paper's naming for the uncompressed tier; the
/// reference implementation stores f32.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PrecisionLevel {
    /// 2-bit resident cache (most compressed, least robust).
    Int2,
    /// 4-bit resident cache — the paper's default.
    Int4,
    /// Everything stays in the INT8 decode buffer; no second stage.
    Int8,
    /// Raw floating-point K/V with exact attention (always succeeds).
    Fp16,
}

impl PrecisionLevel {
    /// The next rung up (toward full precision), or `None` at the top.
    pub fn next(self) -> Option<Self> {
        match self {
            PrecisionLevel::Int2 => Some(PrecisionLevel::Int4),
            PrecisionLevel::Int4 => Some(PrecisionLevel::Int8),
            PrecisionLevel::Int8 => Some(PrecisionLevel::Fp16),
            PrecisionLevel::Fp16 => None,
        }
    }

    /// Bits per cached element at this rung.
    pub fn bits(self) -> f32 {
        match self {
            PrecisionLevel::Int2 => 2.0,
            PrecisionLevel::Int4 => 4.0,
            PrecisionLevel::Int8 => 8.0,
            PrecisionLevel::Fp16 => 16.0,
        }
    }

    /// The rung matching a resident-cache [`BitWidth`]. INT3 has no rung
    /// of its own and starts at INT4 (the nearest safe-or-safer rung).
    pub fn from_bit_width(bits: BitWidth) -> Self {
        match bits {
            BitWidth::Int2 => PrecisionLevel::Int2,
            BitWidth::Int3 | BitWidth::Int4 => PrecisionLevel::Int4,
            BitWidth::Int8 => PrecisionLevel::Int8,
        }
    }
}

impl std::fmt::Display for PrecisionLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PrecisionLevel::Int2 => "INT2",
            PrecisionLevel::Int4 => "INT4",
            PrecisionLevel::Int8 => "INT8",
            PrecisionLevel::Fp16 => "FP16",
        };
        f.write_str(s)
    }
}

/// A per-head KV cache that can climb the precision ladder.
///
/// At the INT2/INT4 rungs this wraps a normal [`HeadKvCache`]; at INT8 the
/// decode buffer is made effectively unbounded so tokens are never
/// second-stage compressed; at FP16 raw rows are kept and attention is
/// exact.
#[derive(Clone, Debug)]
pub struct RobustHeadCache {
    d: usize,
    group_size: usize,
    buffer_capacity: usize,
    level: PrecisionLevel,
    quant: Option<HeadKvCache>,
    k_exact: Matrix,
    v_exact: Matrix,
}

impl RobustHeadCache {
    /// Creates an empty cache for a `d`-channel head at the given rung.
    ///
    /// # Panics
    ///
    /// Panics if `d`, `group_size`, or `buffer_capacity` is zero.
    pub fn new(d: usize, level: PrecisionLevel, group_size: usize, buffer_capacity: usize) -> Self {
        assert!(d > 0, "head dimension must be positive");
        assert!(group_size > 0, "group size must be positive");
        assert!(buffer_capacity > 0, "buffer capacity must be positive");
        let quant = Self::quant_storage(d, level, group_size, buffer_capacity);
        Self {
            d,
            group_size,
            buffer_capacity,
            level,
            quant,
            k_exact: Matrix::zeros(0, d),
            v_exact: Matrix::zeros(0, d),
        }
    }

    fn quant_storage(
        d: usize,
        level: PrecisionLevel,
        group_size: usize,
        buffer_capacity: usize,
    ) -> Option<HeadKvCache> {
        let config = match level {
            PrecisionLevel::Int2 => KvCacheConfig {
                bits: BitWidth::Int2,
                group_size,
                buffer_capacity,
            },
            PrecisionLevel::Int4 => KvCacheConfig {
                bits: BitWidth::Int4,
                group_size,
                buffer_capacity,
            },
            // The bits setting is never exercised: the buffer never fills.
            PrecisionLevel::Int8 => KvCacheConfig {
                bits: BitWidth::Int4,
                group_size,
                buffer_capacity: INT8_RESIDENT_CAPACITY,
            },
            PrecisionLevel::Fp16 => return None,
        };
        Some(HeadKvCache::new(d, config))
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.d
    }

    /// The current rung.
    pub fn level(&self) -> PrecisionLevel {
        self.level
    }

    /// Cached tokens.
    pub fn len(&self) -> usize {
        match &self.quant {
            Some(c) => c.len(),
            None => self.k_exact.rows(),
        }
    }

    /// Whether the cache holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstructs the cached `(K, V)` in f32.
    pub fn dequantize_all(&self) -> (Matrix, Matrix) {
        match &self.quant {
            Some(c) => c.dequantize_all(),
            None => (self.k_exact.clone(), self.v_exact.clone()),
        }
    }

    /// Moves the cache one rung up the ladder, rebuilding it from its own
    /// dequantized contents so no token is lost. Records
    /// [`HealthEvent::PrecisionPromotion`]. Returns `false` (and does
    /// nothing) if already at the top.
    pub fn promote(&mut self, health: Option<&HealthStats>) -> bool {
        let Some(next) = self.level.next() else {
            return false;
        };
        let (k, v) = self.dequantize_all();
        self.level = next;
        self.quant = Self::quant_storage(self.d, next, self.group_size, self.buffer_capacity);
        match &mut self.quant {
            Some(c) => {
                for t in 0..k.rows() {
                    c.try_append(k.row(t), v.row(t))
                        .expect("dequantized rows are finite, with capped scales");
                }
                self.k_exact = Matrix::zeros(0, self.d);
                self.v_exact = Matrix::zeros(0, self.d);
            }
            None => {
                self.k_exact = k;
                self.v_exact = v;
            }
        }
        if let Some(h) = health {
            h.record(HealthEvent::PrecisionPromotion);
        }
        true
    }

    /// Appends one token's K/V rows at the current rung.
    ///
    /// # Errors
    ///
    /// Validation errors leave the cache untouched.
    /// [`CacheError::ScaleOverflow`] means the token *was* buffered but
    /// could not be compressed — promote and carry on.
    pub fn try_append(&mut self, k: &[f32], v: &[f32]) -> Result<(), CacheError> {
        if k.len() != self.d {
            return Err(CacheError::WidthMismatch {
                expected: self.d,
                got: k.len(),
            });
        }
        match &mut self.quant {
            Some(c) => c.try_append(k, v),
            None => {
                if v.len() != self.d {
                    return Err(CacheError::WidthMismatch {
                        expected: self.d,
                        got: v.len(),
                    });
                }
                if let Some(channel) = k.iter().chain(v).position(|x| !x.is_finite()) {
                    return Err(CacheError::NonFinite {
                        channel: channel % self.d,
                    });
                }
                self.k_exact.append_rows(&Matrix::from_rows(&[k]));
                self.v_exact.append_rows(&Matrix::from_rows(&[v]));
                Ok(())
            }
        }
    }

    /// Attends a single query row over the cached tokens at the current
    /// rung (quantized fast path below FP16, exact at FP16).
    ///
    /// # Errors
    ///
    /// [`AttnError::EmptyCache`] on an empty cache.
    pub fn attend(&self, q: &[f32], engine: &TurboAttention) -> Result<Vec<f32>, AttnError> {
        if q.len() != self.d {
            return Err(AttnError::WidthMismatch {
                expected: self.d,
                got: q.len(),
            });
        }
        if self.is_empty() {
            return Err(AttnError::EmptyCache);
        }
        match &self.quant {
            Some(c) => Ok(turbo_attend_cache(q, c, engine.sas())),
            None => {
                let qm = Matrix::from_rows(&[q]);
                // A decode-step query sees every cached token: full mask.
                let out = naive_attention(&qm, &self.k_exact, &self.v_exact, Masking::Full);
                Ok(out.row(0).to_vec())
            }
        }
    }
}

/// Counts the non-finite elements of `row` and replaces them with `0.0`.
fn sanitize_row(row: &mut [f32]) -> u64 {
    let mut n = 0u64;
    for x in row.iter_mut() {
        if !x.is_finite() {
            *x = 0.0;
            n += 1;
        }
    }
    n
}

/// The fault-tolerant TurboAttention engine: wraps [`TurboAttention`] with
/// input screening, output screening, and the promotion ladder, recording
/// every intervention in a [`HealthStats`] registry instead of panicking.
///
/// # Example
///
/// ```
/// use turbo_attention::robust::RobustAttention;
/// use turbo_attention::TurboConfig;
/// use turbo_robust::HealthEvent;
///
/// let engine = RobustAttention::new(TurboConfig::default());
/// let mut cache = engine.new_cache(4);
/// // A poisoned key row is sanitized, not fatal.
/// let out = engine
///     .try_decode(&[0.1; 4], &[f32::NAN, 1.0, 1.0, 1.0], &[1.0; 4], &mut cache)
///     .unwrap();
/// assert!(out.iter().all(|x| x.is_finite()));
/// assert_eq!(engine.health().count(HealthEvent::NonFiniteInput), 1);
/// ```
#[derive(Clone, Debug)]
pub struct RobustAttention {
    engine: TurboAttention,
    health: HealthStats,
    start_level: PrecisionLevel,
}

impl RobustAttention {
    /// Builds a fault-tolerant engine; the starting rung follows
    /// `config.kv_bits`.
    pub fn new(config: TurboConfig) -> Self {
        let start_level = PrecisionLevel::from_bit_width(config.kv_bits);
        Self {
            engine: TurboAttention::new(config),
            health: HealthStats::new(),
            start_level,
        }
    }

    /// The wrapped deterministic engine.
    pub fn engine(&self) -> &TurboAttention {
        &self.engine
    }

    /// The health registry every intervention is recorded in.
    pub fn health(&self) -> &HealthStats {
        &self.health
    }

    /// A fresh head cache at the engine's starting rung.
    pub fn new_cache(&self, d: usize) -> RobustHeadCache {
        let c = self.engine.config();
        RobustHeadCache::new(d, self.start_level, c.group_size, c.buffer_capacity)
    }

    /// Decodes one token, climbing the ladder as needed. Never panics for
    /// any input whose rows have the right width: non-finite elements are
    /// sanitized to 0 ([`HealthEvent::NonFiniteInput`] per element), a
    /// failed compression promotes the cache
    /// ([`HealthEvent::ScaleOverflow`] + [`HealthEvent::PrecisionFallback`]),
    /// and a non-finite output triggers an exact recomputation
    /// ([`HealthEvent::NonFiniteOutput`]).
    ///
    /// # Errors
    ///
    /// Only shape violations ([`AttnError::WidthMismatch`]) are errors.
    pub fn try_decode(
        &self,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        cache: &mut RobustHeadCache,
    ) -> Result<Vec<f32>, AttnError> {
        let d = cache.head_dim();
        for row in [q, k, v] {
            if row.len() != d {
                return Err(AttnError::WidthMismatch {
                    expected: d,
                    got: row.len(),
                });
            }
        }
        let mut q = q.to_vec();
        let mut k = k.to_vec();
        let mut v = v.to_vec();
        let bad = sanitize_row(&mut q) + sanitize_row(&mut k) + sanitize_row(&mut v);
        if bad > 0 {
            self.health.record_n(HealthEvent::NonFiniteInput, bad);
        }

        match cache.try_append(&k, &v) {
            Ok(()) => {}
            Err(CacheError::ScaleOverflow) => {
                // The token is buffered; compression failed. Promote and
                // carry on — the rebuild recompresses at the higher rung.
                self.health.record(HealthEvent::ScaleOverflow);
                self.health.record(HealthEvent::PrecisionFallback);
                cache.promote(Some(&self.health));
            }
            Err(e) => return Err(e.into()),
        }

        loop {
            let out = cache.attend(&q, &self.engine)?;
            if out.iter().all(|x| x.is_finite()) {
                return Ok(out);
            }
            self.health.record(HealthEvent::NonFiniteOutput);
            self.health.record(HealthEvent::PrecisionFallback);
            if !cache.promote(Some(&self.health)) {
                return Err(AttnError::LadderExhausted);
            }
        }
    }

    /// Prefills a head, climbing the ladder as needed. Non-finite input
    /// elements are sanitized; inputs too large for the quantizer skip
    /// straight to the FP16 rung; a non-finite quantized output is redone
    /// exactly.
    ///
    /// # Errors
    ///
    /// [`AttnError::ShapeMismatch`] / [`AttnError::NonEmptyCache`] on
    /// caller mistakes; never on numeric faults.
    pub fn try_prefill(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        cache: &mut RobustHeadCache,
    ) -> Result<Matrix, AttnError> {
        if q.shape() != k.shape() || k.shape() != v.shape() {
            return Err(AttnError::ShapeMismatch);
        }
        if q.cols() != cache.head_dim() {
            return Err(AttnError::WidthMismatch {
                expected: cache.head_dim(),
                got: q.cols(),
            });
        }
        if !cache.is_empty() {
            return Err(AttnError::NonEmptyCache);
        }

        let mut bad = 0u64;
        let sanitize = |m: &Matrix, bad: &mut u64| {
            let mut m = m.clone();
            for r in 0..m.rows() {
                *bad += sanitize_row(m.row_mut(r));
            }
            m
        };
        let q = sanitize(q, &mut bad);
        let k = sanitize(k, &mut bad);
        let v = sanitize(v, &mut bad);
        if bad > 0 {
            self.health.record_n(HealthEvent::NonFiniteInput, bad);
        }

        // Magnitude guard: values this large overflow the quantizer's
        // scale arithmetic. Go straight to the exact rung.
        let too_large = |m: &Matrix| m.as_slice().iter().any(|x| x.abs() > QUANT_SAFE_MAX);
        if cache.quant.is_some() && (too_large(&k) || too_large(&v)) {
            self.health.record(HealthEvent::ScaleOverflow);
            self.health.record(HealthEvent::PrecisionFallback);
            while cache.level() != PrecisionLevel::Fp16 {
                cache.promote(Some(&self.health));
            }
        }

        let cfg = self.engine.config();
        let masking = cfg.masking;
        match &mut cache.quant {
            Some(head) => {
                let sas = self.engine.sas();
                let out =
                    turbo_prefill_head(&q, &k, &v, masking, sas, cfg.block_r, cfg.block_c, head)
                        .output;
                if out.as_slice().iter().all(|x| x.is_finite()) {
                    return Ok(out);
                }
                // Quantized sweep produced garbage: redo exactly at FP16.
                self.health.record(HealthEvent::NonFiniteOutput);
                self.health.record(HealthEvent::PrecisionFallback);
                while cache.level() != PrecisionLevel::Fp16 {
                    cache.promote(Some(&self.health));
                }
                cache.k_exact = k.clone();
                cache.v_exact = v.clone();
                Ok(naive_attention(&q, &k, &v, masking))
            }
            None => {
                cache.k_exact = k.clone();
                cache.v_exact = v.clone();
                Ok(naive_attention(&q, &k, &v, masking))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_robust::FaultInjector;
    use turbo_tensor::{relative_error, TensorRng};

    fn engine() -> RobustAttention {
        RobustAttention::new(TurboConfig::default())
    }

    #[test]
    fn ladder_steps_are_ordered() {
        assert_eq!(PrecisionLevel::Int2.next(), Some(PrecisionLevel::Int4));
        assert_eq!(PrecisionLevel::Int4.next(), Some(PrecisionLevel::Int8));
        assert_eq!(PrecisionLevel::Int8.next(), Some(PrecisionLevel::Fp16));
        assert_eq!(PrecisionLevel::Fp16.next(), None);
        assert!(PrecisionLevel::Int2 < PrecisionLevel::Fp16);
        assert_eq!(PrecisionLevel::Int8.bits(), 8.0);
    }

    #[test]
    fn promotion_climbs_to_the_top_without_losing_tokens() {
        let mut rng = TensorRng::new(0x0BAD_5EED);
        let data = rng.normal(24, 8, 0.0, 1.0);
        let mut cache = RobustHeadCache::new(8, PrecisionLevel::Int2, 32, 8);
        for t in 0..24 {
            cache.try_append(data.row(t), data.row(t)).unwrap();
        }
        let health = HealthStats::new();
        let mut climbs = 0;
        while cache.promote(Some(&health)) {
            climbs += 1;
            assert_eq!(cache.len(), 24, "promotion must not lose tokens");
        }
        assert_eq!(climbs, 3);
        assert_eq!(cache.level(), PrecisionLevel::Fp16);
        assert_eq!(health.count(HealthEvent::PrecisionPromotion), 3);
        assert!(!cache.promote(Some(&health)), "top rung cannot promote");
        // INT2 start quantized coarsely, but the data must still resemble
        // the original (promotion is lossless from the *cached* contents).
        let (kq, _) = cache.dequantize_all();
        assert!(relative_error(&kq, &data) < 0.6);
    }

    #[test]
    fn decode_matches_plain_engine_on_clean_inputs() {
        let robust = engine();
        let plain = TurboAttention::new(TurboConfig::default());
        let mut rng = TensorRng::new(0x1111);
        let data = rng.normal(20, 16, 0.0, 1.0);
        let mut rc = robust.new_cache(16);
        let mut pc = HeadKvCache::new(
            16,
            KvCacheConfig {
                bits: BitWidth::Int4,
                group_size: 64,
                buffer_capacity: 64,
            },
        );
        for t in 0..20 {
            let r = robust
                .try_decode(data.row(t), data.row(t), data.row(t), &mut rc)
                .unwrap();
            pc.try_append(data.row(t), data.row(t)).unwrap();
            let p = turbo_attend_cache(data.row(t), &pc, plain.sas());
            assert_eq!(r, p, "clean inputs must take the identical fast path");
        }
        assert!(robust.health().is_clean());
    }

    #[test]
    fn injected_nan_inputs_are_sanitized_and_counted() {
        let robust = engine();
        let mut rng = TensorRng::new(0x2222);
        let mut inj = FaultInjector::new(0xFA_017);
        let mut cache = robust.new_cache(8);
        let mut injected = 0u64;
        for t in 0..12 {
            let mut k = rng.normal(1, 8, 0.0, 1.0);
            let v = rng.normal(1, 8, 0.0, 1.0);
            let q = rng.normal(1, 8, 0.0, 1.0);
            if t % 3 == 0 {
                let fault = inj.inject_non_finite(&mut k, 2);
                injected += fault.indices.len() as u64;
            }
            let out = robust
                .try_decode(q.row(0), k.row(0), v.row(0), &mut cache)
                .unwrap();
            assert!(out.iter().all(|x| x.is_finite()), "step {t} output poisoned");
        }
        assert_eq!(robust.health().count(HealthEvent::NonFiniteInput), injected);
        assert_eq!(cache.len(), 12);
    }

    #[test]
    fn oversized_prefill_falls_back_to_exact_rung() {
        let robust = engine();
        let mut rng = TensorRng::new(0x3333);
        let q = rng.normal(8, 4, 0.0, 1.0);
        let mut k = rng.normal(8, 4, 0.0, 1.0);
        k.set(3, 1, f32::MAX / 4.0); // beyond QUANT_SAFE_MAX
        let v = rng.normal(8, 4, 0.0, 1.0);
        let mut cache = robust.new_cache(4);
        let out = robust.try_prefill(&q, &k, &v, &mut cache).unwrap();
        assert_eq!(cache.level(), PrecisionLevel::Fp16);
        assert!(out.as_slice().iter().all(|x| x.is_finite()));
        assert_eq!(robust.health().count(HealthEvent::ScaleOverflow), 1);
        assert_eq!(robust.health().count(HealthEvent::PrecisionFallback), 1);
        // Int4 -> Int8 -> Fp16 is two promotion steps.
        assert_eq!(robust.health().count(HealthEvent::PrecisionPromotion), 2);
        let exact = naive_attention(&q, &k, &v, Masking::Causal);
        assert_eq!(out, exact, "FP16 rung is the exact reference");
        // Decode continues to work on the promoted cache.
        let step = robust
            .try_decode(&[0.1; 4], &[0.2; 4], &[0.3; 4], &mut cache)
            .unwrap();
        assert_eq!(step.len(), 4);
        assert_eq!(cache.len(), 9);
    }

    #[test]
    fn clean_prefill_stays_on_the_quantized_rung() {
        let robust = engine();
        let mut rng = TensorRng::new(0x4444);
        let q = rng.normal(32, 8, 0.0, 1.0);
        let k = rng.normal(32, 8, 0.0, 1.0);
        let v = rng.normal(32, 8, 0.0, 1.0);
        let mut cache = robust.new_cache(8);
        let out = robust.try_prefill(&q, &k, &v, &mut cache).unwrap();
        assert_eq!(cache.level(), PrecisionLevel::Int4);
        assert_eq!(cache.len(), 32);
        assert!(robust.health().is_clean());
        let exact = naive_attention(&q, &k, &v, Masking::Causal);
        assert!(relative_error(&out, &exact) < 0.1);
    }

    #[test]
    fn shape_violations_are_errors_not_panics() {
        let robust = engine();
        let mut cache = robust.new_cache(4);
        assert_eq!(
            robust.try_decode(&[0.0; 3], &[0.0; 4], &[0.0; 4], &mut cache),
            Err(AttnError::WidthMismatch { expected: 4, got: 3 })
        );
        let q = Matrix::zeros(4, 4);
        assert_eq!(
            robust.try_prefill(&q, &Matrix::zeros(5, 4), &q, &mut cache),
            Err(AttnError::ShapeMismatch)
        );
        let empty = robust.new_cache(4);
        assert_eq!(
            empty.attend(&[0.0; 4], robust.engine()),
            Err(AttnError::EmptyCache)
        );
    }

    #[test]
    fn fp16_rung_decode_is_exact() {
        let robust = engine();
        let mut cache = RobustHeadCache::new(4, PrecisionLevel::Fp16, 64, 64);
        let mut rng = TensorRng::new(0x5555);
        let data = rng.normal(10, 4, 0.0, 1.0);
        let mut ks = Matrix::zeros(0, 4);
        let mut vs = Matrix::zeros(0, 4);
        for t in 0..10 {
            ks.append_rows(&data.row_block(t, 1));
            vs.append_rows(&data.row_block(t, 1));
            let out = robust
                .try_decode(data.row(t), data.row(t), data.row(t), &mut cache)
                .unwrap();
            let exact = naive_attention(&data.row_block(t, 1), &ks, &vs, Masking::Full);
            for (a, b) in out.iter().zip(exact.row(0)) {
                assert!((a - b).abs() < 1e-5, "step {t}: {a} vs {b}");
            }
        }
        assert_eq!(cache.level(), PrecisionLevel::Fp16);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(AttnError::from(CacheError::ScaleOverflow)
            .to_string()
            .contains("scale overflow"));
        assert!(AttnError::from(QuantError::ScaleOverflow)
            .to_string()
            .contains("quant: quantization scale overflow"));
        assert!(AttnError::from(SoftmaxError::NoFiniteEntry { row: 2 })
            .to_string()
            .contains("row 2"));
        assert_eq!(PrecisionLevel::Int8.to_string(), "INT8");
    }
}

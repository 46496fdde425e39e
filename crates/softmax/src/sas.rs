//! Sparse Activated Softmax (Algorithm 3).

use crate::poly::{Poly3, PAPER_POLY};
use turbo_tensor::Matrix;

/// The paper's sparsification threshold `n_r = −6`: max-subtracted scores
/// below −6 contribute `e^{-6} ≈ 0.0025` at most and are zeroed.
pub const PAPER_THRESHOLD: i32 = -6;

/// Why a checked softmax could not produce a distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoftmaxError {
    /// The row has no finite entry (fully masked, or poisoned with
    /// NaN/−Inf throughout), so no distribution exists for it.
    NoFiniteEntry {
        /// Index of the offending row.
        row: usize,
    },
}

impl std::fmt::Display for SoftmaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoftmaxError::NoFiniteEntry { row } => {
                write!(f, "SAS softmax row {row} has no finite entry")
            }
        }
    }
}

impl std::error::Error for SoftmaxError {}

/// One row of a [`Sas::exp_scaled_rows_into`] call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaledRow {
    /// Dequantization scale of the row's integer scores.
    pub s_scale: f32,
    /// The row's running maximum, subtracted before the exponential.
    pub m_new: f32,
    /// Visible columns `[start, end)`; the row is written as `0.0`
    /// outside them. An empty span writes a zero row.
    pub span: (usize, usize),
}

/// Left-to-right sum of each `width`-wide row of `p` into `sums`, eight
/// rows' chains interleaved at a time (then four, two, one), so the
/// additions of different rows overlap instead of waiting on one row's
/// dependent chain. Every row's own additions keep their order.
fn interleaved_row_sums(p: &[f32], width: usize, sums: &mut [f32]) {
    let mut rows = p.chunks_exact(width);
    let mut sums = sums;
    for chains in [8, 4, 2, 1] {
        while sums.len() >= chains {
            let (block, rest) = std::mem::take(&mut sums).split_at_mut(chains);
            match chains {
                8 => sum_rows::<8>(&mut rows, block),
                4 => sum_rows::<4>(&mut rows, block),
                2 => sum_rows::<2>(&mut rows, block),
                _ => sum_rows::<1>(&mut rows, block),
            }
            sums = rest;
        }
    }
}

/// The next `N` rows' left-to-right sums, as `N` interleaved chains.
fn sum_rows<'a, const N: usize>(rows: &mut impl Iterator<Item = &'a [f32]>, sums: &mut [f32]) {
    let block: [&[f32]; N] = std::array::from_fn(|_| rows.next().expect("one row per sum"));
    let mut acc = [0.0f32; N];
    for j in 0..block[0].len() {
        for (a, row) in acc.iter_mut().zip(&block) {
            *a += row[j];
        }
    }
    sums.copy_from_slice(&acc);
}

/// The SAS approximate exponential: a small LUT for the integer part of
/// the (negated) exponent and a cubic polynomial for the fractional part.
///
/// Inputs are the *max-subtracted* attention scores of online softmax, so
/// they are always ≤ 0; the approximation domain is `[n_r, 0]` and
/// everything below `n_r` is sparsified to exactly zero.
///
/// # Example
///
/// ```
/// use turbo_softmax::Sas;
/// use turbo_tensor::Matrix;
///
/// let sas = Sas::paper_default();
/// let probs = sas.try_softmax(&Matrix::from_rows(&[&[2.0, 1.0, -9.0]]))?;
/// let row = probs.row(0);
/// assert!(row[0] > row[1]);
/// assert_eq!(row[2], 0.0); // 11 below the max: sparsified
/// let sum: f32 = row.iter().sum();
/// assert!((sum - 1.0).abs() < 1e-6);
/// # Ok::<(), turbo_softmax::SoftmaxError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Sas {
    lut: Vec<f32>,
    poly: Poly3,
    threshold: i32,
    f16_poly: bool,
    exact: bool,
}

impl Sas {
    /// Builds a SAS evaluator with sparsity threshold `threshold` (a
    /// negative integer, e.g. −6) and the given fractional-part polynomial.
    ///
    /// The LUT holds `e^0 … e^{threshold}` — `|threshold| + 1` entries —
    /// which is why aggressive sparsification keeps it register-resident.
    ///
    /// # Panics
    ///
    /// Panics if `threshold >= 0`.
    pub fn new(threshold: i32, poly: Poly3) -> Self {
        assert!(threshold < 0, "threshold must be negative");
        let lut = (0..=(-threshold) as usize)
            .map(|n| (-(n as f32)).exp())
            .collect();
        Self {
            lut,
            poly,
            threshold,
            f16_poly: false,
            exact: false,
        }
    }

    /// The paper's configuration: `n_r = −6`, published Equation 15
    /// coefficients, `f32` polynomial evaluation.
    pub fn paper_default() -> Self {
        Self::new(PAPER_THRESHOLD, PAPER_POLY)
    }

    /// A reference evaluator that computes `e^x` exactly with no
    /// sparsification — used to isolate FlashQ's quantization error from
    /// SAS's approximation error (Table 4's "FlashQ-4bit" row).
    pub fn exact_reference() -> Self {
        let mut sas = Self::new(-87, PAPER_POLY); // e^-87 underflows f32 anyway
        sas.exact = true;
        sas
    }

    /// Whether this evaluator computes `e^x` exactly (reference mode).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Switches polynomial evaluation to emulated FP16 (tensor-core
    /// numerics). Returns `self` for builder-style chaining.
    pub fn with_f16_poly(mut self, enabled: bool) -> Self {
        self.f16_poly = enabled;
        self
    }

    /// The sparsification threshold `n_r`.
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    /// The lookup table `e^0 … e^{n_r}`.
    pub fn lut(&self) -> &[f32] {
        &self.lut
    }

    /// Approximates `e^x` for a max-subtracted score `x ≤ 0`.
    ///
    /// Scores below the threshold return exactly 0 (sparsification).
    /// Small positive inputs (floating-point jitter around the row max)
    /// are clamped to 0. NaN returns 0 — a poisoned score contributes
    /// nothing, like a masked entry. (Without the explicit check,
    /// `NaN.min(0.0)` is `0.0` in Rust, so a NaN score would silently
    /// act like the row *maximum* and receive weight ≈ 1.)
    #[inline]
    pub fn exp(&self, x: f32) -> f32 {
        if x.is_nan() {
            return 0.0;
        }
        let x = x.min(0.0);
        if self.exact {
            return x.exp();
        }
        if x < self.threshold as f32 {
            return 0.0;
        }
        let t = -x;
        let n = t as usize; // floor for non-negative t
        let frac = t - n as f32;
        let p = if self.f16_poly {
            self.poly.eval_f16(frac)
        } else {
            self.poly.eval(frac)
        };
        self.lut[n] * p
    }

    /// Element-wise SAS over a matrix of max-subtracted scores.
    pub fn exp_matrix(&self, m: &Matrix) -> Matrix {
        m.map(|x| self.exp(x))
    }

    /// Whether the vectorized tile-exp arm may serve this evaluator:
    /// `f32` polynomial (the f16-emulation mode rounds every Horner step
    /// through binary16, which the vector arm does not replicate) and
    /// non-exact mode. The LUT-size bound (≤ 8 entries, i.e.
    /// `n_r ≥ −7`, so the table fits one 256-bit register) is enforced
    /// by the kernel itself, which declines oversized tables.
    #[inline]
    fn simd_eligible(&self) -> bool {
        !self.exact && !self.f16_poly
    }

    /// Evaluates [`Sas::exp`] over a whole score row at once: writes
    /// `exp(scores[j] - m_new)` into `out[j]` and returns the
    /// left-to-right f32 sum of the probabilities.
    ///
    /// This is the fused-kernel form used by the decode hot path — one
    /// pass over the tile, dispatched to the vectorized SAS arm
    /// ([`turbo_tensor::simd`]) when the evaluator qualifies, else a
    /// scalar loop with a threshold-skip short-circuit that avoids the
    /// LUT/polynomial for sparsified entries. The output and the sum are
    /// bit-identical to calling [`Sas::exp`] per element and
    /// accumulating in order — on *every* arm: `x < n_r` is false for
    /// NaN, so poisoned scores still get exactly 0, and kept entries
    /// take the identical LUT×POLY operation sequence (the vector arm
    /// uses no FMA contraction).
    ///
    /// # Panics
    ///
    /// Panics if `scores` and `out` differ in length.
    pub fn exp_row_into(&self, scores: &[f32], m_new: f32, out: &mut [f32]) -> f32 {
        assert_eq!(scores.len(), out.len(), "score/probability length mismatch");
        let mut sum = 0.0f32;
        if self.exact {
            for (o, &sv) in out.iter_mut().zip(scores) {
                let p = self.exp(sv - m_new);
                *o = p;
                sum += p;
            }
            return sum;
        }
        if self.simd_eligible()
            && turbo_tensor::simd::sas_exp_row_on(
                turbo_tensor::simd_level(),
                scores,
                m_new,
                self.threshold as f32,
                &self.lut,
                self.poly.coeffs,
                out,
            )
        {
            // Same values in the same order as the scalar loop's
            // interleaved accumulation -> bit-identical sum.
            for &p in out.iter() {
                sum += p;
            }
            return sum;
        }
        let thr = self.threshold as f32;
        for (o, &sv) in out.iter_mut().zip(scores) {
            let x = sv - m_new;
            let p = if x < thr { 0.0 } else { self.exp(x) };
            *o = p;
            sum += p;
        }
        sum
    }

    /// As [`Sas::exp_row_into`], fused with the integer-score epilogue of
    /// the quantized attention kernels: the row arrives as raw `i32`
    /// QK^T sums plus their dequantization scale, and each element
    /// evaluates `exp(codes[j] as f32 * s_scale - m_new)`. The one-row
    /// call of [`Sas::exp_scaled_rows_into`].
    ///
    /// Bit-identical to dequantizing into a temporary and calling
    /// [`Sas::exp_row_into`] on it, on every dispatch arm.
    ///
    /// # Panics
    ///
    /// Panics if `codes` and `out` differ in length.
    pub fn exp_scaled_row_into(
        &self,
        codes: &[i32],
        s_scale: f32,
        m_new: f32,
        out: &mut [f32],
    ) -> f32 {
        let row = ScaledRow {
            s_scale,
            m_new,
            span: (0, codes.len()),
        };
        let mut sum = [0.0];
        self.exp_scaled_rows_into(codes, codes.len(), &[row], out, &mut sum);
        sum[0]
    }

    /// The fused integer-score SAS over a block of rows, each `width`
    /// wide, with its own scale, running max and visible span
    /// ([`ScaledRow`]): writes every row of `out` whole — zeros outside
    /// the span, `exp(codes[j] as f32 * s_scale - m_new)` inside — and
    /// each row's left-to-right `f32` sum into `sums`. The score tile
    /// never materializes as an `f32` buffer: the convert,
    /// dequantize-scale, max-subtract and SAS exponential all happen in
    /// registers (vectorized when the evaluator qualifies).
    ///
    /// The row sums run as interleaved chains, up to eight rows at a
    /// time, instead of one row's dependent additions after another's.
    /// Each row is still summed left to right over its whole width, and
    /// the zeros outside its span leave a sum that starts at `+0.0`
    /// unchanged, so every sum is bit-identical to summing the span's
    /// probabilities in order — what [`Sas::exp_scaled_row_into`] on the
    /// span returns.
    ///
    /// # Panics
    ///
    /// Panics if `codes` or `out` is not `rows.len() · width` long,
    /// `sums` is not `rows.len()` long, or a span is not inside `width`.
    pub fn exp_scaled_rows_into(
        &self,
        codes: &[i32],
        width: usize,
        rows: &[ScaledRow],
        out: &mut [f32],
        sums: &mut [f32],
    ) {
        assert_eq!(codes.len(), rows.len() * width, "score tile shape mismatch");
        assert_eq!(out.len(), codes.len(), "score/probability length mismatch");
        assert_eq!(sums.len(), rows.len(), "row-sum count mismatch");
        if width == 0 {
            sums.fill(0.0);
            return;
        }
        let tiles = codes.chunks_exact(width).zip(out.chunks_exact_mut(width));
        for (row, (codes, out)) in rows.iter().zip(tiles) {
            let (j0, j1) = row.span;
            assert!(
                j0 <= j1 && j1 <= width,
                "span {j0}..{j1} outside width {width}"
            );
            out[..j0].fill(0.0);
            out[j1..].fill(0.0);
            self.exp_scaled_span(&codes[j0..j1], row.s_scale, row.m_new, &mut out[j0..j1]);
        }
        interleaved_row_sums(out, width, sums);
    }

    /// Writes `exp(codes[j] as f32 * s_scale - m_new)` into `out[j]`: the
    /// vector arm when the evaluator qualifies, else a scalar loop with a
    /// threshold-skip short-circuit that avoids the LUT/polynomial for
    /// sparsified entries (`x < n_r` is false for NaN, so poisoned scores
    /// still get exactly 0 from [`Sas::exp`]).
    fn exp_scaled_span(&self, codes: &[i32], s_scale: f32, m_new: f32, out: &mut [f32]) {
        if self.exact {
            for (o, &cv) in out.iter_mut().zip(codes) {
                *o = self.exp(cv as f32 * s_scale - m_new);
            }
            return;
        }
        if self.simd_eligible()
            && turbo_tensor::simd::sas_exp_scaled_row_on(
                turbo_tensor::simd_level(),
                codes,
                s_scale,
                m_new,
                self.threshold as f32,
                &self.lut,
                self.poly.coeffs,
                out,
            )
        {
            return;
        }
        let thr = self.threshold as f32;
        for (o, &cv) in out.iter_mut().zip(codes) {
            let x = cv as f32 * s_scale - m_new;
            *o = if x < thr { 0.0 } else { self.exp(x) };
        }
    }

    /// Full Algorithm 3: row-max subtraction, sparsification, LUT×POLY
    /// exponentiation, and row-sum normalization. Rows containing *some*
    /// NaN/±Inf entries still normalize — the poisoned entries get weight
    /// 0, like masked positions — but a row with no finite entry at all
    /// is an error because no distribution exists for it.
    ///
    /// # Errors
    ///
    /// [`SoftmaxError::NoFiniteEntry`] naming the first fully-poisoned
    /// row.
    pub fn try_softmax(&self, scores: &Matrix) -> Result<Matrix, SoftmaxError> {
        let mut out = scores.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            // f32::max skips NaN operands, so a finite max is found even
            // in partially poisoned rows.
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if !max.is_finite() {
                return Err(SoftmaxError::NoFiniteEntry { row: r });
            }
            let mut sum = 0.0f32;
            for x in row.iter_mut() {
                *x = self.exp(*x - max);
                sum += *x;
            }
            // The max entry always yields POLY(0) ≈ 1 > 0, so sum > 0.
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        Ok(out)
    }

    /// Maximum absolute error of [`Sas::exp`] against `e^x` over the live
    /// domain `[n_r, 0]`, sampled at `samples + 1` points.
    pub fn max_error_vs_exp(&self, samples: usize) -> f32 {
        (0..=samples)
            .map(|i| {
                let x = self.threshold as f32 * i as f32 / samples as f32;
                (self.exp(x) - x.exp()).abs()
            })
            .fold(0.0, f32::max)
    }

    /// Fraction of entries a matrix of max-subtracted scores would have
    /// sparsified to zero — the "sparsity" knob behind SAS's name.
    pub fn sparsity(&self, scores: &Matrix) -> f64 {
        if scores.is_empty() {
            return 0.0;
        }
        let mut zeroed = 0usize;
        for r in 0..scores.rows() {
            let max = scores
                .row(r)
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            zeroed += scores
                .row(r)
                .iter()
                .filter(|&&x| x - max < self.threshold as f32)
                .count();
        }
        zeroed as f64 / scores.len() as f64
    }
}

impl Default for Sas {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_tensor::TensorRng;

    #[test]
    fn exp_accuracy_on_domain() {
        let sas = Sas::paper_default();
        let err = sas.max_error_vs_exp(10_000);
        assert!(err < 1.5e-3, "SAS exp error {err}");
    }

    #[test]
    fn exp_at_zero_is_nearly_one() {
        let sas = Sas::paper_default();
        assert!((sas.exp(0.0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn sparsification_below_threshold() {
        let sas = Sas::paper_default();
        assert_eq!(sas.exp(-6.001), 0.0);
        assert_eq!(sas.exp(-100.0), 0.0);
        assert!(sas.exp(-6.0) > 0.0); // exactly at the threshold is kept
        assert_eq!(sas.exp(f32::NEG_INFINITY), 0.0);
    }

    #[test]
    fn positive_jitter_clamps_to_zero_exponent() {
        let sas = Sas::paper_default();
        assert_eq!(sas.exp(1e-6), sas.exp(0.0));
    }

    #[test]
    fn integer_points_hit_lut_times_poly0() {
        let sas = Sas::paper_default();
        for n in 0..=6 {
            let x = -(n as f32);
            let expect = (x.exp()) * PAPER_POLY.eval(0.0);
            assert!((sas.exp(x) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let sas = Sas::paper_default();
        let mut rng = TensorRng::new(1);
        let scores = rng.normal(8, 32, 0.0, 3.0);
        let p = sas.try_softmax(&scores).unwrap();
        for r in 0..8 {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn softmax_close_to_exact() {
        let sas = Sas::paper_default();
        let mut rng = TensorRng::new(2);
        let scores = rng.normal(16, 64, 0.0, 2.0);
        let approx = sas.try_softmax(&scores).unwrap();
        let exact = crate::exact::softmax(&scores);
        // Sparsification zeroes tail probabilities < e^-6 ≈ 2.5e-3 each;
        // renormalization over a 64-wide row concentrates the removed mass
        // onto the head, so the element-wise deviation is ~1e-2.
        assert!(turbo_tensor::max_abs_error(&approx, &exact) < 2e-2);
    }

    #[test]
    fn softmax_preserves_argmax() {
        let sas = Sas::paper_default();
        let mut rng = TensorRng::new(3);
        for _ in 0..20 {
            let scores = rng.normal(1, 50, 0.0, 4.0);
            let exact = crate::exact::softmax(&scores);
            let approx = sas.try_softmax(&scores).unwrap();
            let am = |m: &Matrix| {
                m.row(0)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
            };
            assert_eq!(am(&exact), am(&approx));
        }
    }

    #[test]
    fn sparsity_measures_tail_mass() {
        let sas = Sas::paper_default();
        // One dominant score, everything else 10 below -> all but one zeroed.
        let mut scores = Matrix::filled(1, 100, -10.0);
        scores.set(0, 0, 0.0);
        assert!((sas.sparsity(&scores) - 0.99).abs() < 1e-9);
    }

    #[test]
    fn wider_threshold_reduces_error() {
        let tight = Sas::new(-3, PAPER_POLY);
        let wide = Sas::new(-9, PAPER_POLY);
        // At x = -4: tight zeroes it (error e^-4), wide approximates it.
        let x = -4.0f32;
        assert_eq!(tight.exp(x), 0.0);
        assert!((wide.exp(x) - x.exp()).abs() < 1e-3);
    }

    #[test]
    fn f16_poly_mode_stays_accurate() {
        let sas = Sas::paper_default().with_f16_poly(true);
        let err = sas.max_error_vs_exp(1000);
        assert!(err < 4e-3, "f16 SAS error {err}");
    }

    #[test]
    fn exact_reference_matches_std_exp() {
        let sas = Sas::exact_reference();
        assert!(sas.is_exact());
        for i in 0..200 {
            let x = -(i as f32) * 0.25;
            assert_eq!(sas.exp(x), x.exp());
        }
        // No sparsification inside f32 range.
        assert!(sas.exp(-50.0) > 0.0);
    }

    #[test]
    fn lut_size_tracks_threshold() {
        assert_eq!(Sas::paper_default().lut().len(), 7);
        assert_eq!(Sas::new(-3, PAPER_POLY).lut().len(), 4);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn non_negative_threshold_panics() {
        Sas::new(0, PAPER_POLY);
    }

    #[test]
    fn nan_score_gets_zero_weight() {
        let sas = Sas::paper_default();
        assert_eq!(sas.exp(f32::NAN), 0.0);
        // In exact-reference mode too.
        assert_eq!(Sas::exact_reference().exp(f32::NAN), 0.0);
    }

    #[test]
    fn try_softmax_rejects_fully_poisoned_rows() {
        let sas = Sas::paper_default();
        let all_nan = Matrix::filled(2, 3, f32::NAN);
        assert_eq!(
            sas.try_softmax(&all_nan),
            Err(SoftmaxError::NoFiniteEntry { row: 0 })
        );
        let mut masked = Matrix::filled(3, 4, 0.0);
        for c in 0..4 {
            masked.set(1, c, f32::NEG_INFINITY);
        }
        assert_eq!(
            sas.try_softmax(&masked),
            Err(SoftmaxError::NoFiniteEntry { row: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "no finite entry")]
    fn softmax_still_panics_on_masked_row() {
        Sas::paper_default()
            .try_softmax(&Matrix::filled(1, 4, f32::NEG_INFINITY))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Next f32 toward −∞ (larger magnitude for negative inputs).
    fn next_below(x: f32) -> f32 {
        assert!(x < 0.0 && x.is_finite());
        f32::from_bits(x.to_bits() + 1)
    }

    /// Next f32 toward 0 (smaller magnitude for negative inputs).
    fn next_above(x: f32) -> f32 {
        assert!(x < 0.0 && x.is_finite());
        f32::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn threshold_boundary_is_kept_exactly_at_n_r() {
        // A score exactly at the sparsity threshold n_r must be *kept*
        // (the LUT holds |n_r|+1 entries precisely so e^{n_r} exists);
        // one ULP below must sparsify to exactly 0. Pin this for several
        // thresholds so an off-by-one in either the comparison or the
        // LUT sizing cannot creep back in.
        for thr in [-1i32, -3, -6, -9] {
            let sas = Sas::new(thr, PAPER_POLY);
            let at = thr as f32;
            let expect = at.exp() * PAPER_POLY.eval(0.0);
            assert!(
                (sas.exp(at) - expect).abs() < 1e-6,
                "x = n_r = {thr} must hit lut[{}]*poly(0)",
                -thr
            );
            assert!(sas.exp(at) > 0.0, "x = n_r = {thr} must not sparsify");
            assert_eq!(
                sas.exp(next_below(at)),
                0.0,
                "one ULP below n_r = {thr} must sparsify"
            );
            assert!(
                sas.exp(next_above(at)) > 0.0,
                "one ULP above n_r = {thr} must be kept"
            );
        }
    }

    #[test]
    fn exp_matrix_sparsifies_identically_to_exp_at_the_boundary() {
        let sas = Sas::paper_default();
        let thr = sas.threshold() as f32;
        let probes = [
            0.0,
            thr,
            next_below(thr),
            next_above(thr),
            thr + 0.5,
            thr - 0.5,
            f32::NEG_INFINITY,
        ];
        let m = Matrix::from_rows(&[&probes]);
        let out = sas.exp_matrix(&m);
        for (j, &x) in probes.iter().enumerate() {
            assert_eq!(
                out.get(0, j),
                sas.exp(x),
                "exp_matrix diverged from exp at x = {x}"
            );
        }
        // And the boundary semantics themselves: kept at n_r, zero below.
        assert!(out.get(0, 1) > 0.0);
        assert_eq!(out.get(0, 2), 0.0);
    }

    #[test]
    fn softmax_and_sparsity_agree_with_exp_at_the_boundary() {
        let sas = Sas::paper_default();
        let thr = sas.threshold() as f32;
        // Max-subtracted scores: max 0, one entry exactly at n_r, one a
        // single ULP below.
        let scores = Matrix::from_rows(&[&[0.0, thr, next_below(thr)]]);
        let p = sas.try_softmax(&scores).unwrap();
        assert!(p.get(0, 1) > 0.0, "entry exactly at n_r keeps weight");
        assert_eq!(p.get(0, 2), 0.0, "entry one ULP below n_r is zeroed");
        // sparsity() counts with the same strict `<`: exactly 1 of 3.
        let frac = sas.sparsity(&scores);
        assert!((frac - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn exp_row_into_is_bit_identical_to_per_element_exp() {
        let thr = PAPER_THRESHOLD as f32;
        let probes = [
            0.0,
            -1.3,
            thr,
            next_below(thr),
            next_above(thr),
            -42.0,
            f32::NEG_INFINITY,
            f32::NAN,
            0.7, // positive jitter above the row max
        ];
        let mut rng = TensorRng::new(17);
        for sas in [
            Sas::paper_default(),
            Sas::paper_default().with_f16_poly(true),
            Sas::exact_reference(),
        ] {
            for m_new in [0.0f32, 2.5, -1.0] {
                let mut scores: Vec<f32> = probes.to_vec();
                scores.extend(rng.normal(1, 32, 0.0, 4.0).as_slice());
                let mut out = vec![f32::NAN; scores.len()];
                let sum = sas.exp_row_into(&scores, m_new, &mut out);
                let mut expect_sum = 0.0f32;
                for (j, &sv) in scores.iter().enumerate() {
                    let p = sas.exp(sv - m_new);
                    assert!(
                        out[j] == p || (out[j].is_nan() && p.is_nan()),
                        "exp_row_into diverged at score {sv} (m_new {m_new})"
                    );
                    expect_sum += p;
                }
                assert_eq!(sum.to_bits(), expect_sum.to_bits());
            }
        }
    }

    #[test]
    fn exp_scaled_row_into_is_bit_identical_to_dequantize_then_exp() {
        // The fused integer-score path must match dequantizing into a
        // temporary f32 row and running the plain path — bitwise, on
        // whichever dispatch arm is live — for every evaluator flavor
        // (vector-eligible, f16-poly scalar fallback, exact reference).
        let mut codes: Vec<i32> = vec![0, 1, -1, i32::MIN / 2, i32::MAX / 2];
        codes.extend((0..67).map(|j| (j * 7919 % 40001) - 20000));
        for sas in [
            Sas::paper_default(),
            Sas::new(-9, PAPER_POLY), // LUT too big for a register: scalar
            Sas::paper_default().with_f16_poly(true),
            Sas::exact_reference(),
        ] {
            for (s_scale, m_new) in [(3.1e-4f32, 0.0f32), (0.017, 4.2), (1.0, -2.0)] {
                let dequant: Vec<f32> =
                    codes.iter().map(|&c| c as f32 * s_scale).collect();
                let mut via_f32 = vec![f32::NAN; codes.len()];
                let sum_f32 = sas.exp_row_into(&dequant, m_new, &mut via_f32);
                let mut fused = vec![f32::NAN; codes.len()];
                let sum_fused = sas.exp_scaled_row_into(&codes, s_scale, m_new, &mut fused);
                for (j, (&a, &b)) in fused.iter().zip(&via_f32).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "fused diverged at code {} (scale {s_scale}, m_new {m_new})",
                        codes[j]
                    );
                }
                assert_eq!(sum_fused.to_bits(), sum_f32.to_bits());
            }
        }
    }

    /// Rows of `width` raw scores shaped like a causal prefill tile:
    /// row `i` sees keys `[lo_i, hi_i)`, with fully masked rows mixed in.
    fn causal_rows(br: usize, width: usize) -> (Vec<i32>, Vec<ScaledRow>) {
        let codes = (0..br * width)
            .map(|j| ((j as i64 * 7919 % 40001) - 20000) as i32)
            .collect();
        let rows = (0..br)
            .map(|i| {
                let hi = (i * width / br.max(1) + 3).min(width);
                let span = match i % 5 {
                    4 => (0, 0),             // fully masked row
                    3 => (width / 2, width), // sliding-window-like start
                    _ => (0, hi),            // causal diagonal
                };
                ScaledRow {
                    s_scale: 3.1e-4 * (1.0 + i as f32 * 0.1),
                    m_new: (i % 3) as f32,
                    span,
                }
            })
            .collect();
        (codes, rows)
    }

    #[test]
    fn multi_row_sums_match_the_left_to_right_span_sum() {
        for sas in [
            Sas::paper_default(),
            Sas::new(-9, PAPER_POLY),
            Sas::paper_default().with_f16_poly(true),
            Sas::exact_reference(),
        ] {
            // br around the interleave widths (8, 4, 2, 1), none a
            // multiple of 8 but 8 and 64 themselves.
            for br in [1usize, 2, 3, 5, 7, 8, 9, 13, 15, 64, 67] {
                for width in [1usize, 7, 16, 64, 65] {
                    let (codes, rows) = causal_rows(br, width);
                    let mut out = vec![f32::NAN; br * width];
                    let mut sums = vec![f32::NAN; br];
                    sas.exp_scaled_rows_into(&codes, width, &rows, &mut out, &mut sums);
                    for (i, row) in rows.iter().enumerate() {
                        let (j0, j1) = row.span;
                        let codes = &codes[i * width..(i + 1) * width];
                        let out = &out[i * width..(i + 1) * width];
                        let mut span_out = vec![f32::NAN; j1 - j0];
                        let want = sas.exp_scaled_row_into(
                            &codes[j0..j1],
                            row.s_scale,
                            row.m_new,
                            &mut span_out,
                        );
                        let serial = span_out.iter().fold(0.0f32, |s, &p| s + p);
                        let what = format!("br {br} width {width} row {i}");
                        assert_eq!(sums[i].to_bits(), want.to_bits(), "{what}: sum");
                        assert_eq!(sums[i].to_bits(), serial.to_bits(), "{what}: serial");
                        for (j, &p) in out.iter().enumerate() {
                            let want = if (j0..j1).contains(&j) {
                                span_out[j - j0]
                            } else {
                                0.0
                            };
                            assert_eq!(p.to_bits(), want.to_bits(), "{what}: entry {j}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partially_poisoned_row_still_normalizes() {
        let sas = Sas::paper_default();
        let scores = Matrix::from_rows(&[&[1.0, f32::NAN, 2.0, f32::NEG_INFINITY]]);
        let p = sas.try_softmax(&scores).unwrap();
        let row = p.row(0);
        assert_eq!(row[1], 0.0, "NaN entry must get zero weight");
        assert_eq!(row[3], 0.0, "-Inf entry must get zero weight");
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(row[2] > row[0], "healthy entries keep their ordering");
    }
}

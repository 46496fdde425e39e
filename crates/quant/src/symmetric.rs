//! Symmetric INT8 quantization (first BPQ stage).
//!
//! Algorithm 1 quantizes each FlashAttention tile with a single scale
//! `s = max(abs(X)) / 119` and no zero point, so that tile×tile matmuls run
//! on the INT8 path with only a scalar `s_a · s_b` correction — none of the
//! cross terms of Equation 5 appear.
//!
//! The divisor 119 (rather than 127) leaves headroom so that values slightly
//! above the observed block maximum — e.g. later tokens entering the
//! enhanced KV buffer under its *universal scale* policy — can be clamped
//! instead of forcing a recompression of the whole block.

use turbo_tensor::Matrix;

/// The paper's symmetric INT8 scale divisor: `s = max|x| / 119`.
pub const SYM_INT8_DIVISOR: f32 = 119.0;

/// A symmetrically INT8-quantized matrix block.
///
/// Stores the integer codes row-major along with the single f32 scale.
/// Dequantization is `x̂ = q · scale`.
///
/// # Example
///
/// ```
/// use turbo_tensor::Matrix;
/// use turbo_quant::SymQuantized;
///
/// let m = Matrix::from_rows(&[&[1.0, -2.0, 0.5]]);
/// let q = SymQuantized::quantize(&m);
/// let back = q.dequantize();
/// assert!((back.get(0, 1) + 2.0).abs() < 0.02);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SymQuantized {
    data: Vec<i8>,
    scale: f32,
    rows: usize,
    cols: usize,
}

impl SymQuantized {
    /// Quantizes a block with the paper's `max|x| / 119` rule.
    ///
    /// An all-zero block gets `scale = 1.0` so that dequantization is exact.
    pub fn quantize(x: &Matrix) -> Self {
        Self::quantize_with_divisor(x, SYM_INT8_DIVISOR)
    }

    /// Quantizes with an explicit divisor (127 for full-range symmetric
    /// quantization; 119 for the paper's head-room variant).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is not a positive finite value ≤ 127.
    pub fn quantize_with_divisor(x: &Matrix, divisor: f32) -> Self {
        assert!(
            divisor.is_finite() && divisor > 0.0 && divisor <= 127.0,
            "divisor must be in (0, 127]"
        );
        let abs_max = x.abs_max();
        let scale = if abs_max == 0.0 {
            1.0
        } else {
            abs_max / divisor
        };
        Self::quantize_with_scale(x, scale)
    }

    /// Quantizes with a pre-chosen scale, clamping codes to `[-127, 127]`.
    ///
    /// This is the primitive behind the enhanced KV buffer's *universal
    /// scale*: new tokens reuse the existing scale and out-of-range values
    /// are clamped rather than triggering recompression (subsection 3.3).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a positive finite value.
    pub fn quantize_with_scale(x: &Matrix, scale: f32) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        let mut data = vec![0i8; x.len()];
        encode_sym(x.as_slice(), scale, &mut data);
        Self {
            data,
            scale,
            rows: x.rows(),
            cols: x.cols(),
        }
    }

    /// Wraps existing INT8 codes (e.g. produced by integer dequantization
    /// of a progressive block) with their scale.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or the scale is invalid.
    pub fn from_parts(data: Vec<i8>, scale: f32, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "code length mismatch");
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        Self {
            data,
            scale,
            rows,
            cols,
        }
    }

    /// The integer codes, row-major.
    pub fn codes(&self) -> &[i8] {
        &self.data
    }

    /// The f32 scale `s` with `x̂ = q · s`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Number of rows (tokens).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (channels).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reconstructs the f32 block.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&q| q as f32 * self.scale).collect(),
        )
    }

    /// Rows `[start, start+len)` of the codes, row-major.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the block.
    pub fn code_rows(&self, start: usize, len: usize) -> &[i8] {
        assert!(start + len <= self.rows, "row range out of bounds");
        &self.data[start * self.cols..(start + len) * self.cols]
    }

    /// Storage footprint in bytes: codes plus one f32 scale.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() + std::mem::size_of::<f32>()
    }
}

/// Quantizes a raw slice symmetrically with the paper's divisor, returning
/// `(codes, scale)` — the slice-level primitive used inside fused kernels
/// where constructing a [`Matrix`] would be wasteful.
pub fn quantize_slice_sym(x: &[f32]) -> (Vec<i8>, f32) {
    let mut codes = Vec::new();
    let scale = quantize_slice_sym_into(x, &mut codes);
    (codes, scale)
}

/// Allocation-free sibling of [`quantize_slice_sym`]: writes the codes
/// into `out` (cleared and resized — no reallocation once `out` has
/// capacity) and returns the scale. Produces bit-identical codes and
/// scale to [`quantize_slice_sym`] and to [`SymQuantized::quantize`] on a
/// matrix with the same element order.
pub fn quantize_slice_sym_into(x: &[f32], out: &mut Vec<i8>) -> f32 {
    out.clear();
    out.resize(x.len(), 0);
    quantize_row_sym_into(x, out)
}

/// As [`quantize_slice_sym_into`], into a fixed-length slice: the row
/// form fused kernels use to quantize one row of a row-major block in
/// place. Bit-identical codes and scale.
///
/// # Panics
///
/// Panics if `x` and `out` differ in length.
pub fn quantize_row_sym_into(x: &[f32], out: &mut [i8]) -> f32 {
    assert_eq!(x.len(), out.len(), "row length mismatch");
    let abs_max = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if abs_max == 0.0 {
        1.0
    } else {
        abs_max / SYM_INT8_DIVISOR
    };
    encode_sym(x, scale, out);
    scale
}

/// The shared encode pass behind every symmetric quantizer here:
/// `(v / scale).round().clamp(-127, 127) as i8` per element, dispatched
/// to the vectorized arm ([`turbo_tensor::simd::quantize_i8_row_on`])
/// when one is available — bit-identical to the scalar expression on
/// every arm (true division, round half away from zero, NaN → 0).
///
/// The abs-max *scale* fold stays scalar by design: it folds with
/// `f32::max`, whose NaN-skipping semantics (`m.max(NaN) == m`) would
/// need per-lane replication for no measurable win — the encode division
/// pass dominates the cost.
fn encode_sym(x: &[f32], scale: f32, out: &mut [i8]) {
    if !turbo_tensor::simd::quantize_i8_row_on(turbo_tensor::simd_level(), x, scale, out) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = (v / scale).round().clamp(-127.0, 127.0) as i8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_tensor::{max_abs_error, TensorRng};

    #[test]
    fn round_trip_error_is_bounded_by_half_step() {
        let mut rng = TensorRng::new(11);
        let m = rng.normal(64, 64, 0.0, 2.0);
        let q = SymQuantized::quantize(&m);
        let back = q.dequantize();
        // Max error of round-to-nearest is scale/2.
        assert!(max_abs_error(&m, &back) <= q.scale() * 0.5 + 1e-6);
    }

    #[test]
    fn extreme_value_maps_to_119() {
        let m = Matrix::from_rows(&[&[10.0, -10.0, 0.0]]);
        let q = SymQuantized::quantize(&m);
        assert_eq!(q.codes(), &[119, -119, 0]);
        assert!((q.scale() - 10.0 / 119.0).abs() < 1e-7);
    }

    #[test]
    fn divisor_127_uses_full_range() {
        let m = Matrix::from_rows(&[&[1.0, -1.0]]);
        let q = SymQuantized::quantize_with_divisor(&m, 127.0);
        assert_eq!(q.codes(), &[127, -127]);
    }

    #[test]
    fn zero_block_round_trips_exactly() {
        let m = Matrix::zeros(4, 4);
        let q = SymQuantized::quantize(&m);
        assert_eq!(q.dequantize(), m);
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn universal_scale_clamps_outliers() {
        let m = Matrix::from_rows(&[&[1000.0, -1000.0, 1.0]]);
        let q = SymQuantized::quantize_with_scale(&m, 1.0);
        assert_eq!(q.codes(), &[127, -127, 1]);
    }

    #[test]
    fn code_rows_slices_tokens() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let q = SymQuantized::quantize_with_scale(&m, 1.0);
        assert_eq!(q.code_rows(1, 2), &[2, 3, 4, 5]);
    }

    #[test]
    fn storage_accounting() {
        let q = SymQuantized::quantize(&Matrix::zeros(8, 8));
        assert_eq!(q.storage_bytes(), 64 + 4);
    }

    #[test]
    fn slice_quantizer_matches_matrix_quantizer() {
        let m = Matrix::from_rows(&[&[0.3, -0.7, 2.5, 0.0]]);
        let (codes, scale) = quantize_slice_sym(m.as_slice());
        let q = SymQuantized::quantize(&m);
        assert_eq!(codes, q.codes());
        assert_eq!(scale, q.scale());
    }

    #[test]
    fn into_variant_matches_and_reuses_capacity() {
        let mut rng = TensorRng::new(12);
        let m = rng.normal(8, 8, 0.0, 1.5);
        let (codes, scale) = quantize_slice_sym(m.as_slice());
        let mut buf = Vec::new();
        let s2 = quantize_slice_sym_into(m.as_slice(), &mut buf);
        assert_eq!(codes, buf);
        assert_eq!(scale, s2);
        // A second call into the same buffer must not grow capacity.
        let cap = buf.capacity();
        quantize_slice_sym_into(m.as_slice(), &mut buf);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn invalid_scale_panics() {
        SymQuantized::quantize_with_scale(&Matrix::zeros(1, 1), 0.0);
    }

    #[test]
    fn encode_edge_values_match_the_scalar_contract() {
        // Pin the dispatched encode against the scalar expression on the
        // values where a vector arm could plausibly diverge: exact .5
        // midpoints (round half away, not half even), NaN (→ 0 like
        // Rust's saturating cast), ±inf (clamp), and ragged lengths.
        for len in [1usize, 7, 31, 32, 33, 100] {
            let x: Vec<f32> = (0..len)
                .map(|j| match j % 7 {
                    0 => 2.5,
                    1 => -2.5,
                    2 => f32::NAN,
                    3 => f32::INFINITY,
                    4 => f32::NEG_INFINITY,
                    5 => 0.49999997, // largest f32 below 0.5
                    _ => (j as f32 - 50.0) * 0.73,
                })
                .collect();
            let q = SymQuantized::quantize_with_scale(
                &Matrix::from_vec(1, len, x.clone()),
                1.0,
            );
            for (j, &v) in x.iter().enumerate() {
                let want = (v / 1.0f32).round().clamp(-127.0, 127.0) as i8;
                assert_eq!(q.codes()[j], want, "len {len} j {j} v {v}");
            }
            assert_eq!(q.codes()[0], 3, "2.5 must round away from zero");
            if len > 1 {
                assert_eq!(q.codes()[1], -3, "-2.5 must round away from zero");
            }
        }
    }
}

//! The enhanced INT8 decode buffer with a universal scale.

use crate::error::CacheError;
use turbo_quant::symmetric::{encode_row_sym_into, SymQuantized, SYM_INT8_DIVISOR};
use turbo_tensor::Matrix;

/// Headroom multiplier applied to the first token's range when the buffer
/// opens. The paper clamps outliers against a universal scale; 4× headroom
/// makes clamping rare (later tokens must exceed 4× the opening token's
/// peak) while INT8 still leaves ~30 codes of resolution per unit of the
/// opening range — far finer than the INT4/2 resident cache.
const UNIVERSAL_SCALE_HEADROOM: f32 = 4.0;

/// Smallest `|x / s|` that rounds outside the INT8 code range `±127`.
const CLAMP_EDGE: f32 = 127.5;

/// An INT8 token buffer whose scale is fixed at open time.
///
/// Rows are tokens, columns are head channels. The first appended row
/// establishes the *universal scale* `s = headroom · max|x| / 119`; later
/// rows are quantized with that same scale, clamping to ±127 — so earlier
/// rows never need recompression (subsection 3.3).
#[derive(Clone, Debug, PartialEq)]
pub struct Int8Buffer {
    codes: Vec<i8>,
    rows: usize,
    d: usize,
    scale: Option<f32>,
    clamped: u64,
}

impl Int8Buffer {
    /// Creates an empty buffer for `d`-channel tokens.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "channel count must be positive");
        Self {
            codes: Vec::new(),
            rows: 0,
            d,
            scale: None,
            clamped: 0,
        }
    }

    /// Reassembles a buffer from raw parts (deserialization path).
    pub(crate) fn from_parts(
        codes: Vec<i8>,
        rows: usize,
        d: usize,
        scale: Option<f32>,
        clamped: u64,
    ) -> Self {
        assert!(d > 0, "channel count must be positive");
        assert_eq!(codes.len(), rows * d, "code length mismatch");
        assert!(
            rows == 0 || scale.is_some(),
            "non-empty buffer needs a scale"
        );
        Self {
            codes,
            rows,
            d,
            scale,
            clamped,
        }
    }

    /// Appends one token row, establishing the universal scale if this is
    /// the first row since the last [`Int8Buffer::clear`]. Returns the
    /// number of clamped (out-of-range) elements in this row. Validates
    /// the row and leaves the buffer untouched on error, so a caller can
    /// sanitize or degrade and retry.
    ///
    /// # Errors
    ///
    /// [`CacheError::WidthMismatch`] if `row.len() != d`;
    /// [`CacheError::NonFinite`] naming the first bad channel if the row
    /// contains NaN/±Inf.
    pub fn try_append(&mut self, row: &[f32]) -> Result<usize, CacheError> {
        if row.len() != self.d {
            return Err(CacheError::WidthMismatch {
                expected: self.d,
                got: row.len(),
            });
        }
        if let Some(channel) = row.iter().position(|x| !x.is_finite()) {
            return Err(CacheError::NonFinite { channel });
        }
        let scale = *self.scale.get_or_insert_with(|| {
            // Divide before multiplying: `abs_max * headroom` overflows
            // to Inf for abs_max within headroom× of f32::MAX, which
            // would silently zero every code in the buffer. The cap
            // keeps every reconstruction `code · scale` finite even
            // when rounding pushes a code past abs_max / scale.
            // /128 not /127: a power-of-two divide is exact in f32,
            // so 127 · cap stays strictly below f32::MAX.
            let scale = (turbo_tensor::abs_max(row) / SYM_INT8_DIVISOR * UNIVERSAL_SCALE_HEADROOM)
                .min(f32::MAX / 128.0);
            // An all-zero row, or one so small (subnormal) that its scale
            // underflows to 0, opens the buffer at scale 1: a zero scale
            // would make the buffer's flush panic.
            if scale > 0.0 {
                scale
            } else {
                1.0
            }
        });
        let start = self.codes.len();
        self.codes.resize(start + self.d, 0);
        encode_row_sym_into(row, scale, &mut self.codes[start..]);
        // `x / s` rounds (half away from zero) outside ±127 exactly when
        // its magnitude reaches 127.5; the row is finite and the scale
        // positive, so no quotient is NaN.
        let clamped_here: usize = row
            .iter()
            .map(|&x| usize::from((x / scale).abs() >= CLAMP_EDGE))
            .sum();
        self.rows += 1;
        self.clamped += clamped_here as u64;
        Ok(clamped_here)
    }

    /// Number of buffered tokens.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the buffer holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Channel count per token.
    pub fn channels(&self) -> usize {
        self.d
    }

    /// The universal scale, if established.
    pub fn scale(&self) -> Option<f32> {
        self.scale
    }

    /// Total elements clamped since the buffer was created.
    pub fn clamped_elements(&self) -> u64 {
        self.clamped
    }

    /// The INT8 codes, row-major `rows × d`.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The codes of the newest row.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn last_row(&self) -> &[i8] {
        assert!(!self.is_empty(), "empty buffer has no last row");
        &self.codes[self.codes.len() - self.d..]
    }

    /// Snapshot of the buffer as a [`SymQuantized`] block (for integer
    /// attention over the buffered tokens).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn as_sym_quantized(&self) -> SymQuantized {
        assert!(!self.is_empty(), "cannot snapshot an empty buffer");
        SymQuantized::from_parts(self.codes.clone(), self.scale.unwrap(), self.rows, self.d)
    }

    /// Dequantizes the buffered tokens to f32.
    pub fn dequantize(&self) -> Matrix {
        match self.scale {
            None => Matrix::zeros(0, self.d),
            Some(s) => Matrix::from_vec(
                self.rows,
                self.d,
                self.codes.iter().map(|&q| q as f32 * s).collect(),
            ),
        }
    }

    /// Empties the buffer; the next append establishes a fresh universal
    /// scale. The code vector keeps its capacity, so steady-state
    /// append/flush cycles stop allocating once the buffer has grown to
    /// its working size.
    pub fn clear(&mut self) {
        self.codes.clear();
        self.rows = 0;
        self.scale = None;
    }

    /// Pre-allocates code storage for `rows` tokens so that appends up to
    /// that many tokens never reallocate — the decode hot path reserves
    /// the flush capacity once at cache construction.
    pub fn reserve_rows(&mut self, rows: usize) {
        let want = rows.saturating_mul(self.d);
        if self.codes.capacity() < want {
            self.codes.reserve(want - self.codes.len());
        }
    }

    /// Storage footprint: codes plus the scale.
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() + std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_row_sets_scale_with_headroom() {
        let mut b = Int8Buffer::new(4);
        b.try_append(&[1.0, -2.0, 0.5, 0.0]).unwrap();
        let s = b.scale().unwrap();
        assert!((s - 2.0 * UNIVERSAL_SCALE_HEADROOM / SYM_INT8_DIVISOR).abs() < 1e-7);
    }

    #[test]
    fn later_rows_reuse_scale_and_clamp() {
        let mut b = Int8Buffer::new(2);
        b.try_append(&[1.0, -1.0]).unwrap();
        let s = b.scale().unwrap();
        // A much larger token must clamp, not rescale.
        let clamped = b.try_append(&[100.0, 0.5]).unwrap();
        assert_eq!(clamped, 1);
        assert_eq!(b.scale().unwrap(), s);
        assert_eq!(b.codes()[2], 127);
        assert_eq!(b.clamped_elements(), 1);
    }

    #[test]
    fn round_trip_within_headroom_is_accurate() {
        let mut b = Int8Buffer::new(3);
        b.try_append(&[1.0, -1.0, 0.5]).unwrap();
        b.try_append(&[1.5, 0.2, -1.9]).unwrap(); // within 4x headroom of max|first| = 1
        let back = b.dequantize();
        assert!((back.get(1, 0) - 1.5).abs() < 0.02);
        assert!((back.get(1, 2) + 1.9).abs() < 0.02);
        assert_eq!(b.clamped_elements(), 0);
    }

    #[test]
    fn clear_resets_scale() {
        let mut b = Int8Buffer::new(1);
        b.try_append(&[1.0]).unwrap();
        let s1 = b.scale().unwrap();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.scale(), None);
        b.try_append(&[10.0]).unwrap();
        assert!(b.scale().unwrap() > s1);
    }

    #[test]
    fn zero_first_row_gets_unit_scale() {
        // A subnormal row's scale underflows to 0 and is treated alike:
        // the buffer must still hand its codes to the second stage.
        let tiny = f32::from_bits(1);
        for first in [[0.0, 0.0], [tiny, -tiny]] {
            let mut b = Int8Buffer::new(2);
            b.try_append(&first).unwrap();
            assert_eq!(b.scale(), Some(1.0), "{first:?}");
            b.try_append(&[3.0, -3.0]).unwrap();
            assert_eq!(b.codes()[2], 3);
            assert_eq!(b.as_sym_quantized().scale(), 1.0);
        }
    }

    #[test]
    fn snapshot_matches_dequantize() {
        let mut b = Int8Buffer::new(2);
        b.try_append(&[0.7, -0.3]).unwrap();
        b.try_append(&[0.1, 0.9]).unwrap();
        let snap = b.as_sym_quantized();
        assert_eq!(snap.dequantize(), b.dequantize());
        assert_eq!(snap.rows(), 2);
    }

    #[test]
    fn empty_dequantize_has_zero_rows() {
        let b = Int8Buffer::new(4);
        assert_eq!(b.dequantize().shape(), (0, 4));
    }

    // A caller that cannot recover panics with the error's message; it
    // must name the cause.
    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_panics() {
        Int8Buffer::new(3)
            .try_append(&[1.0])
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_panics() {
        Int8Buffer::new(1)
            .try_append(&[f32::NAN])
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn try_append_reports_first_bad_channel_and_leaves_buffer_clean() {
        let mut b = Int8Buffer::new(3);
        assert_eq!(
            b.try_append(&[1.0, f32::NAN, f32::INFINITY]),
            Err(CacheError::NonFinite { channel: 1 })
        );
        assert_eq!(
            b.try_append(&[1.0, 2.0]),
            Err(CacheError::WidthMismatch { expected: 3, got: 2 })
        );
        assert!(b.is_empty(), "failed appends must not mutate the buffer");
        assert_eq!(b.scale(), None);
        assert_eq!(b.try_append(&[1.0, 2.0, 3.0]), Ok(0));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn reserve_rows_makes_appends_and_clear_allocation_stable() {
        let mut b = Int8Buffer::new(4);
        b.reserve_rows(8);
        let cap = b.codes.capacity();
        assert!(cap >= 32);
        for cycle in 0..3 {
            for t in 0..8 {
                b.try_append(&[t as f32, 1.0, -1.0, 0.5 * cycle as f32]).unwrap();
            }
            assert_eq!(b.codes.capacity(), cap, "append grew capacity");
            b.clear();
            assert_eq!(b.codes.capacity(), cap, "clear dropped capacity");
        }
    }

    /// The scalar encode the dispatched one replaced: divide, round,
    /// count the out-of-range codes, clamp.
    fn scalar_append(row: &[f32], scale: f32, codes: &mut Vec<i8>) -> usize {
        let mut clamped = 0;
        for &x in row {
            let q = (x / scale).round();
            if !(-127.0..=127.0).contains(&q) {
                clamped += 1;
            }
            codes.push(q.clamp(-127.0, 127.0) as i8);
        }
        clamped
    }

    #[test]
    fn dispatched_encode_matches_the_scalar_formula() {
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        };
        for d in [1usize, 3, 7, 8, 31, 32, 33, 64, 100, 128] {
            // A plain opening row, then rows up to 8× its peak (clamping
            // past the 4× headroom), the exact ±127.5 rounding edges, and
            // an opening row at f32::MAX on a second buffer.
            let open: Vec<f32> = (0..d).map(|_| next()).collect();
            let mut rows = vec![open.clone()];
            for gain in [0.5f32, 2.0, 4.0, 6.0, 8.0] {
                rows.push((0..d).map(|_| next() * gain).collect());
            }
            for (first, buffer_rows) in [
                (open, rows),
                (
                    (0..d)
                        .map(|i| {
                            if i % 2 == 0 {
                                f32::MAX
                            } else {
                                -f32::MAX / 3.0
                            }
                        })
                        .collect(),
                    vec![(0..d).map(|_| next() * 1e37).collect()],
                ),
            ] {
                let mut b = Int8Buffer::new(d);
                b.try_append(&first).unwrap();
                let scale = b.scale().unwrap();
                let mut want = Vec::new();
                let mut want_clamped = scalar_append(&first, scale, &mut want) as u64;
                let edges: Vec<f32> = (0..d)
                    .map(|i| [127.5, -127.5, 127.49, -127.49][i % 4] * scale)
                    .collect();
                for row in buffer_rows.iter().chain([&edges]) {
                    let got = b.try_append(row).unwrap();
                    let clamped = scalar_append(row, scale, &mut want);
                    assert_eq!(got, clamped, "d {d}: clamp count");
                    want_clamped += clamped as u64;
                }
                assert_eq!(b.codes(), &want[..], "d {d}: codes");
                assert_eq!(b.clamped_elements(), want_clamped, "d {d}: clamped total");
            }
        }
    }

    #[test]
    fn extreme_outlier_first_row_keeps_scale_finite() {
        // Regression: the universal scale used to compute
        // `abs_max * headroom / divisor`, which overflows to Inf when
        // abs_max is within headroom× of f32::MAX — every subsequent code
        // then quantized to 0 silently. Dividing first keeps it finite.
        let mut b = Int8Buffer::new(2);
        b.try_append(&[f32::MAX, -f32::MAX / 2.0]).unwrap();
        let s = b.scale().unwrap();
        assert!(s.is_finite() && s > 0.0, "scale must stay finite, got {s}");
        // The opening row itself must round-trip to nonzero values.
        let back = b.dequantize();
        assert!(back.get(0, 0) > 0.0, "outlier collapsed to {}", back.get(0, 0));
        assert!(back.get(0, 1) < 0.0);
        // And ordinary rows afterwards still quantize (to tiny codes).
        b.try_append(&[0.0, 0.0]).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b.dequantize().as_slice().iter().all(|x| x.is_finite()));
    }
}

//! Row- and column-wise reductions used by online softmax and quantization.

use crate::matrix::Matrix;

/// Row-wise maximum: `out[i] = max_j m[i][j]`.
///
/// Returns `-∞` for rows of an empty-width matrix, matching the online
/// softmax initialization `m_i^(0) = -∞`.
pub fn row_max(m: &Matrix) -> Vec<f32> {
    (0..m.rows())
        .map(|r| m.row(r).iter().copied().fold(f32::NEG_INFINITY, f32::max))
        .collect()
}

/// Row-wise sum: `out[i] = Σ_j m[i][j]`.
pub fn row_sum(m: &Matrix) -> Vec<f32> {
    (0..m.rows()).map(|r| m.row(r).iter().sum()).collect()
}

/// Row-wise maximum absolute value — the symmetric-quantization statistic
/// `max(abs(X))` of Algorithm 1.
pub fn row_abs_max(m: &Matrix) -> Vec<f32> {
    (0..m.rows()).map(|r| abs_max(m.row(r))).collect()
}

/// `max |x|` over the non-NaN elements of `x`, or `0.0` if there are none
/// — the value of the serial fold `x.iter().fold(0.0, |m, v| m.max(v.abs()))`
/// (`f32::max` skips a NaN operand).
///
/// Folded in eight independent lanes, which the compiler turns into
/// vector `max` instructions instead of one serial chain. The order does
/// not matter: every `|x|` is `+0.0` or above (no `−0.0` to tie with), so
/// the maximum is one bit pattern, and `v > m` is false for a NaN `v`,
/// which is skipped exactly as `f32::max` skips it.
pub fn abs_max(x: &[f32]) -> f32 {
    const LANES: usize = 8;
    let keep_greater = |m: f32, v: f32| if v > m { v } else { m };
    let mut lanes = [0.0f32; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = keep_greater(*m, v.abs());
        }
    }
    let folded = lanes.into_iter().fold(0.0, keep_greater);
    chunks
        .remainder()
        .iter()
        .fold(folded, |m, &v| keep_greater(m, v.abs()))
}

/// Per-column `(max, min)` pairs — the channel-range statistic behind the
/// paper's head-priority metric (Equation 11) and Figure 4.
///
/// # Panics
///
/// Panics if the matrix has zero rows.
pub fn col_max_min(m: &Matrix) -> Vec<(f32, f32)> {
    assert!(m.rows() > 0, "col_max_min on empty matrix");
    let mut out = vec![(f32::NEG_INFINITY, f32::INFINITY); m.cols()];
    for r in 0..m.rows() {
        for (c, &v) in m.row(r).iter().enumerate() {
            let (mx, mn) = &mut out[c];
            *mx = mx.max(v);
            *mn = mn.min(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_parallel_abs_max_matches_the_serial_fold() {
        let serial = |x: &[f32]| x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let specials = [
            f32::NAN,
            0.0,
            -0.0,
            1.5,
            -7.25,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MAX,
        ];
        for len in 0..=40 {
            for shift in 0..specials.len() {
                let x: Vec<f32> = (0..len)
                    .map(|i| match (i + shift) % 5 {
                        0 => specials[(i * 7 + shift) % specials.len()],
                        _ => (i as f32 - 11.0) * 0.37,
                    })
                    .collect();
                assert_eq!(
                    abs_max(&x).to_bits(),
                    serial(&x).to_bits(),
                    "len {len} shift {shift}"
                );
            }
            // All NaN, all ±0, and a lone NaN among zeros.
            for fill in [f32::NAN, 0.0, -0.0] {
                let x = vec![fill; len];
                assert_eq!(
                    abs_max(&x).to_bits(),
                    serial(&x).to_bits(),
                    "len {len} fill {fill}"
                );
            }
            let mut x = vec![-0.0; len];
            if len > 0 {
                x[len / 2] = f32::NAN;
            }
            assert_eq!(abs_max(&x).to_bits(), 0.0f32.to_bits(), "len {len}");
        }
    }

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, -4.0, 2.0], &[-1.0, 0.5, 3.0]])
    }

    #[test]
    fn row_max_works() {
        assert_eq!(row_max(&sample()), vec![2.0, 3.0]);
    }

    #[test]
    fn row_sum_works() {
        assert_eq!(row_sum(&sample()), vec![-1.0, 2.5]);
    }

    #[test]
    fn row_abs_max_works() {
        assert_eq!(row_abs_max(&sample()), vec![4.0, 3.0]);
    }

    #[test]
    fn col_max_min_works() {
        let ranges = col_max_min(&sample());
        assert_eq!(ranges[0], (1.0, -1.0));
        assert_eq!(ranges[1], (0.5, -4.0));
        assert_eq!(ranges[2], (3.0, 2.0));
    }

    #[test]
    fn row_max_of_zero_width_is_neg_infinity() {
        let m = Matrix::zeros(2, 0);
        assert_eq!(row_max(&m), vec![f32::NEG_INFINITY; 2]);
    }
}

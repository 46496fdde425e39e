//! Matrix-multiplication kernels.
//!
//! Three families, mirroring the precisions the paper's kernels use:
//!
//! * [`matmul`] / [`matmul_transposed_b`] — `f32` reference GEMM.
//! * [`matmul_f16`] — inputs rounded through binary16, `f32` accumulation:
//!   the numerics of an FP16 tensor-core MMA.
//! * [`matmul_i8`] / [`matmul_i8_transposed_b`] — `i8 × i8 → i32`
//!   accumulation: the numerics of an INT8 tensor-core MMA (IMMA). `i32`
//!   accumulation cannot overflow for the dimensions used in attention
//!   (`|a·b| ≤ 128² · k`, safe up to [`DOT_I8_MAX_LEN`] just below 2¹⁷ —
//!   *not* unbounded; longer reductions must go through [`dot_i8_wide`]).
//!
//! The integer dot/GEMM kernels dispatch once per process to an
//! explicit-SIMD arm (see [`crate::simd`]); every arm is bit-identical
//! to the scalar fallback.

use crate::half::round_f16;
use crate::matrix::Matrix;
use crate::simd;

/// Largest slice length the `i32`-accumulating integer kernels accept
/// before a debug assertion fires.
///
/// Every product is bounded by `(−128)² = 16384 = 2¹⁴`, so a length-`k`
/// dot, and every partial sum of it, is bounded by `2¹⁴ · k`; the largest
/// `k` that keeps this within `i32` is `⌊(2³¹−1)/2¹⁴⌋ = 131 071`. At
/// `2¹⁷ = 131 072` a dot of all −128 reaches exactly 2³¹ and wraps. The
/// scalar and AVX2 arms never leave `i32`: every partial sum they form is
/// a sum of a subset of the products. The VNNI arm's biased partial sums
/// may wrap, but wrapping `i32` arithmetic is exact modulo 2³², so its
/// corrected result is exact whenever the true sum fits. Callers with
/// longer reductions (e.g. full-channel statistics over 100k+ token
/// contexts) must use [`dot_i8_wide`], which chunks into `i64`.
pub const DOT_I8_MAX_LEN: usize = 131_071;

/// Exact `f32` GEMM: `C = A · B`.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use turbo_tensor::{Matrix, matmul};
/// let a = Matrix::from_rows(&[&[1.0, 2.0]]);
/// let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
/// assert_eq!(matmul(&a, &b).get(0, 0), 11.0);
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul dimension mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        for (kk, &av) in arow.iter().enumerate().take(k) {
            let brow = b.row(kk);
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
    c
}

/// `C = A · Bᵀ` without materializing the transpose.
///
/// This is the natural layout for attention scores `S = Q · Kᵀ` where both
/// `Q` and `K` are stored token-major.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_transposed_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transposed_b dimension mismatch: {:?} x {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    let m = a.rows();
    let n = b.rows();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = b.row(j);
            let mut acc = 0.0f32;
            for (av, bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *cv = acc;
        }
    }
    c
}

/// FP16-emulated GEMM: inputs and the per-element products are rounded
/// through binary16; accumulation stays in `f32` (tensor-core semantics).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_f16(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_f16 dimension mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += round_f16(a.get(i, kk)) * round_f16(b.get(kk, j));
            }
            c.set(i, j, acc);
        }
    }
    c
}

/// INT8 GEMM with `i32` accumulation: `C = A · B`.
///
/// `a` is `m × k` row-major, `b` is `k × n` row-major.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the given dimensions.
pub fn matmul_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "a length mismatch");
    assert_eq!(b.len(), k * n, "b length mismatch");
    debug_assert!(
        k <= DOT_I8_MAX_LEN,
        "matmul_i8 k {k} exceeds the i32-safe bound {DOT_I8_MAX_LEN}"
    );
    let mut c = vec![0i32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk] as i32;
            if av == 0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv as i32;
            }
        }
    }
    c
}

/// `i8 × i8 → i32` dot product over equal-length slices — the shared
/// inner kernel of every integer GEMM here, dispatched once per process
/// to the best available SIMD arm ([`simd::simd_level`]).
///
/// On AVX2 this widens `i8→i16` and multiply-accumulates pairs with
/// `pmaddwd` (16 exact products per instruction); on NEON it uses
/// `vmull_s8` + `vpadalq_s16`; elsewhere it falls back to a zip
/// reduction LLVM auto-vectorizes. All arms are bit-identical because
/// every partial product is exact and integer addition is associative.
///
/// # Panics
///
/// Panics if the slices differ in length. Debug builds additionally
/// assert `a.len() <= `[`DOT_I8_MAX_LEN`] — beyond that the `i32`
/// accumulator can wrap silently; long-`k` callers must use
/// [`dot_i8_wide`].
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert!(
        a.len() <= DOT_I8_MAX_LEN,
        "dot_i8 length {} exceeds the i32-safe bound {DOT_I8_MAX_LEN}; use dot_i8_wide",
        a.len()
    );
    simd::dot_i8_on(simd::simd_level(), a, b)
}

/// Overflow-proof `i8 × i8 → i64` dot product for reductions longer
/// than [`DOT_I8_MAX_LEN`]: the slices are processed in
/// `DOT_I8_MAX_LEN`-sized chunks through the dispatched `i32` kernel
/// and the per-chunk sums accumulate in `i64` (exact for any
/// representable slice length, since `2¹⁴ · 2⁶³⁻¹⁴` is unreachable).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_i8_wide(a: &[i8], b: &[i8]) -> i64 {
    dot_i8_wide_on(simd::simd_level(), a, b)
}

/// [`dot_i8_wide`] on an explicit arm.
fn dot_i8_wide_on(level: simd::SimdLevel, a: &[i8], b: &[i8]) -> i64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.chunks(DOT_I8_MAX_LEN)
        .zip(b.chunks(DOT_I8_MAX_LEN))
        .map(|(ca, cb)| simd::dot_i8_on(level, ca, cb) as i64)
        .sum()
}

/// INT8 GEMM against a transposed second operand: `C = A · Bᵀ`.
///
/// `a` is `m × k`, `b` is `n × k`, both row-major; result is `m × n` in
/// `i32`. This matches the `Q⁸ · (K⁸)ᵀ` step of Algorithm 1.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the given dimensions.
pub fn matmul_i8_transposed_b(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    let mut c = Vec::new();
    matmul_i8_transposed_b_into(a, b, m, k, n, &mut c);
    c
}

/// Allocation-free [`matmul_i8_transposed_b`]: writes the `m × n` result
/// into `out` (cleared and refilled; no reallocation once `out` has
/// capacity). The SIMD arm is resolved once up front
/// ([`simd::matmul_i8t_on`]) rather than per inner dot; on x86 a
/// register-blocked micro-kernel computes two `a` rows by four `b` rows
/// at a time, on `vpdpbusd` where the CPU has AVX-VNNI. Bit-identical to
/// the scalar twin because integer sums are exact.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the given dimensions.
/// Debug builds additionally assert `k <= `[`DOT_I8_MAX_LEN`] (the
/// `i32` accumulator wraps beyond it).
pub fn matmul_i8_transposed_b_into(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    out: &mut Vec<i32>,
) {
    debug_assert!(
        k <= DOT_I8_MAX_LEN,
        "matmul_i8_transposed_b k {k} exceeds the i32-safe bound {DOT_I8_MAX_LEN}"
    );
    simd::matmul_i8t_on(simd::simd_level(), a, b, m, k, n, out);
}

/// Row-sum of an `i8` matrix in `i32` — the correction term
/// `Σ_k Q(A_ik)` needed by asymmetric integer GEMMs (Equation 5).
pub fn row_sums_i8(a: &[i8], m: usize, k: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "length mismatch");
    (0..m)
        .map(|i| a[i * k..(i + 1) * k].iter().map(|&x| x as i32).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(matmul(&a, &Matrix::eye(3)), a);
        assert_eq!(matmul(&Matrix::eye(3), &a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transposed_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 6, |r, c| (r as f32 - c as f32) * 0.37);
        let b = Matrix::from_fn(5, 6, |r, c| (r * c) as f32 * 0.11 - 1.0);
        let direct = matmul_transposed_b(&a, &b);
        let via_t = matmul(&a, &b.transpose());
        for i in 0..4 {
            for j in 0..5 {
                assert!((direct.get(i, j) - via_t.get(i, j)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn f16_matmul_close_to_f32_for_small_values() {
        let a = Matrix::from_fn(3, 8, |r, c| ((r + c) as f32 * 0.125) - 0.5);
        let b = Matrix::from_fn(8, 3, |r, c| ((r * c) as f32 * 0.0625) - 0.25);
        let exact = matmul(&a, &b);
        let approx = matmul_f16(&a, &b);
        for i in 0..3 {
            for j in 0..3 {
                assert!((exact.get(i, j) - approx.get(i, j)).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn f16_matmul_is_exact_on_f16_grid() {
        // Inputs already representable in f16 -> identical to f32 result.
        let a = Matrix::from_fn(2, 4, |r, c| (r as f32 + c as f32) * 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| r as f32 - c as f32);
        assert_eq!(matmul(&a, &b), matmul_f16(&a, &b));
    }

    #[test]
    fn i8_matmul_matches_i64_reference() {
        let m = 5;
        let k = 17;
        let n = 7;
        let a: Vec<i8> = (0..m * k).map(|i| ((i * 37 + 11) % 255) as i8).collect();
        let b: Vec<i8> = (0..k * n).map(|i| ((i * 91 + 3) % 255) as i8).collect();
        let c = matmul_i8(&a, &b, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for kk in 0..k {
                    acc += a[i * k + kk] as i64 * b[kk * n + j] as i64;
                }
                assert_eq!(c[i * n + j] as i64, acc);
            }
        }
    }

    #[test]
    fn i8_transposed_matches_dense() {
        let m = 4;
        let k = 9;
        let n = 6;
        let a: Vec<i8> = (0..m * k).map(|i| (i as i32 % 251 - 125) as i8).collect();
        let bt: Vec<i8> = (0..n * k).map(|i| (i as i32 % 201 - 100) as i8).collect();
        // Build dense b (k x n) from bt (n x k).
        let mut b = vec![0i8; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        assert_eq!(
            matmul_i8_transposed_b(&a, &bt, m, k, n),
            matmul_i8(&a, &b, m, k, n)
        );
    }

    #[test]
    fn i8_extremes_do_not_overflow_i32() {
        // Worst case: all entries ±127 over k=1024 -> 127*127*1024 ≈ 1.65e7,
        // far below i32::MAX. Verify exactness at extremes.
        let k = 1024;
        let a = vec![127i8; k];
        let b = vec![-128i8; k];
        let c = matmul_i8(&a, &b, 1, k, 1);
        assert_eq!(c[0], 127 * -128 * k as i32);
    }

    #[test]
    fn unrolled_dot_matches_naive_at_all_lengths() {
        // Lengths around the 4-wide unroll boundary, including ragged tails.
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 64, 65] {
            let a: Vec<i8> = (0..len).map(|i| ((i * 73 + 5) % 255) as i8).collect();
            let b: Vec<i8> = (0..len).map(|i| ((i * 131 + 17) % 255) as i8).collect();
            let naive: i32 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| x as i32 * y as i32)
                .sum();
            assert_eq!(dot_i8(&a, &b), naive, "len {len}");
        }
    }

    #[test]
    fn into_variant_matches_and_reuses_capacity() {
        let (m, k, n) = (3usize, 13usize, 5usize);
        let a: Vec<i8> = (0..m * k).map(|i| (i as i32 % 251 - 125) as i8).collect();
        let b: Vec<i8> = (0..n * k).map(|i| (i as i32 % 201 - 100) as i8).collect();
        let direct = matmul_i8_transposed_b(&a, &b, m, k, n);
        let mut buf = Vec::new();
        matmul_i8_transposed_b_into(&a, &b, m, k, n, &mut buf);
        assert_eq!(direct, buf);
        let cap = buf.capacity();
        matmul_i8_transposed_b_into(&a, &b, m, k, n, &mut buf);
        assert_eq!(buf.capacity(), cap, "second call must not reallocate");
    }

    #[test]
    fn row_sums() {
        let a: Vec<i8> = vec![1, -2, 3, 100, -100, 5];
        assert_eq!(row_sums_i8(&a, 2, 3), vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn wide_dot_is_exact_past_the_i32_wrap_point() {
        // 127·127·k overflows i32 at k = 133 152; at k = 200 000 the true
        // sum is 16129 · 200 000 = 3 225 800 000 > i32::MAX. The chunked
        // i64 path must report it exactly (the i32 kernel would wrap to a
        // negative value here).
        let k = 200_000usize;
        let a = vec![127i8; k];
        let b = vec![127i8; k];
        assert_eq!(dot_i8_wide(&a, &b), 16_129i64 * k as i64);
        // Mixed-sign long reduction with a non-trivial ragged tail.
        let a2: Vec<i8> = (0..k + 7).map(|i| ((i * 37 + 11) % 255) as i8).collect();
        let b2: Vec<i8> = (0..k + 7).map(|i| ((i * 91 + 3) % 255) as i8).collect();
        let reference: i64 = a2
            .iter()
            .zip(&b2)
            .map(|(&x, &y)| x as i64 * y as i64)
            .sum();
        assert_eq!(dot_i8_wide(&a2, &b2), reference);
    }

    #[test]
    fn wide_dot_is_exact_at_the_chunk_edge() {
        // All −128 is the largest product, 2¹⁴: one full chunk is the
        // largest sum an i32 chunk may hold, and at 2¹⁷ elements it
        // would reach exactly 2³¹.
        let k = DOT_I8_MAX_LEN;
        let a = vec![-128i8; 2 * k];
        for len in [k, k + 1, 2 * k] {
            let want = 16_384i64 * len as i64;
            for level in [simd::SimdLevel::Scalar, simd::simd_level()] {
                assert_eq!(
                    dot_i8_wide_on(level, &a[..len], &a[..len]),
                    want,
                    "{level:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn wide_dot_matches_narrow_below_the_bound() {
        let a: Vec<i8> = (0..4096).map(|i| ((i * 73 + 5) % 255) as i8).collect();
        let b: Vec<i8> = (0..4096).map(|i| ((i * 131 + 17) % 255) as i8).collect();
        assert_eq!(dot_i8_wide(&a, &b), dot_i8(&a, &b) as i64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds the i32-safe bound")]
    fn long_k_narrow_dot_trips_the_guard() {
        let a = vec![0i8; DOT_I8_MAX_LEN + 1];
        let b = vec![0i8; DOT_I8_MAX_LEN + 1];
        dot_i8(&a, &b);
    }
}

//! Explicit-SIMD kernels behind one-time runtime feature dispatch.
//!
//! Every kernel here has a **scalar twin** that is the semantic source of
//! truth: the SIMD arm must produce bit-identical results for every input
//! (pinned by exhaustive equivalence tests at ragged lengths around every
//! vector-width boundary). This is a hard requirement, not a nicety — the
//! workspace's determinism suites (worker-count bit-identity, crash-
//! consistency replay, sharding content CRCs) compare outputs across
//! machines and arms byte-for-byte, so a kernel whose vector arm drifts
//! by one ULP would make recovery "corruption" indistinguishable from
//! dispatch differences.
//!
//! Bit-identity is cheap for the integer kernels: `i8×i8→i32` products
//! are exact and wrapping `i32` addition is associative, so any lane split
//! or bias correction gives the same sum modulo 2³² — the exact sum
//! whenever it fits in `i32`, which [`crate::matmul::DOT_I8_MAX_LEN`]
//! guarantees. The floating-point kernels are
//! engineered for it: every lane performs the *same operations in the
//! same order* as the scalar twin (no FMA contraction, true division
//! instead of reciprocal multiplication, explicit round-half-away-from-
//! zero instead of the hardware's round-half-even), so IEEE-754
//! determinism gives bitwise equality per element.
//!
//! Dispatch is decided once per process ([`simd_level`]) from CPU
//! feature detection, overridable with `TURBO_SIMD=0|off|scalar` so CI
//! can pin the scalar fallback arm under test on any machine.

use std::sync::OnceLock;

/// A kernel arm selectable at runtime.
///
/// [`simd_level`] picks the best available arm once per process; the
/// `*_on` kernel entry points accept an explicit level so tests and
/// benches can exercise both arms in the same process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar kernels — the always-correct reference arm.
    Scalar,
    /// 256-bit AVX2 kernels (x86-64): widening `i8→i16→i32` integer
    /// dot via `pmaddwd`, a register-blocked integer GEMM (on `vpdpbusd`
    /// when the CPU also has AVX-VNNI), plus vectorized SAS
    /// exponentiation and symmetric INT8 encode.
    Avx2,
    /// 128-bit NEON kernels (aarch64): widening `vmull_s8` +
    /// `vpadalq_s16` integer dot/matmul (four `b` rows per sweep),
    /// vectorized SAS exponentiation with a `vqtbl2q`-resident LUT, and
    /// symmetric INT8 encode via `FRINTA` (the hardware round-half-away
    /// the scalar twin specifies).
    Neon,
}

impl SimdLevel {
    /// Whether this arm can run on the current machine.
    pub fn available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 => false,
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(target_arch = "aarch64"))]
            SimdLevel::Neon => false,
        }
    }
}

static LEVEL: OnceLock<SimdLevel> = OnceLock::new();

/// The process-wide dispatch decision, detected once on first call and
/// cached (subsequent calls are a single atomic load).
///
/// Setting `TURBO_SIMD=0`, `off`, or `scalar` in the environment forces
/// [`SimdLevel::Scalar`] regardless of CPU features — the hook CI uses to
/// keep the scalar fallback arm covered on SIMD-capable machines. The
/// variable is read once; changing it after the first kernel call has no
/// effect.
pub fn simd_level() -> SimdLevel {
    *LEVEL.get_or_init(|| {
        if let Ok(v) = std::env::var("TURBO_SIMD") {
            let v = v.to_ascii_lowercase();
            if v == "0" || v == "off" || v == "scalar" {
                return SimdLevel::Scalar;
            }
        }
        if SimdLevel::Avx2.available() {
            SimdLevel::Avx2
        } else if SimdLevel::Neon.available() {
            SimdLevel::Neon
        } else {
            SimdLevel::Scalar
        }
    })
}

/// Number of `i8` elements the widest integer-dot vector step consumes —
/// equivalence tests sweep every ragged length in `0..=4 * lanes + 3`.
pub const DOT_I8_SIMD_LANES: usize = 32;

/// `f32` lanes of the vectorized SAS / quantize kernels.
pub const F32_SIMD_LANES: usize = 8;

#[inline]
pub(crate) fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// `i8 × i8 → i32` dot product on an explicit arm.
///
/// Bit-identical across arms (integer accumulation is exact). Prefer
/// [`crate::dot_i8`], which dispatches on [`simd_level`]; this entry
/// point exists so tests and benches can pin a specific arm.
///
/// # Panics
///
/// Panics if the slices differ in length or `level` is not
/// [`available`](SimdLevel::available) on this machine.
#[inline]
pub fn dot_i8_on(level: SimdLevel, a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    match level {
        SimdLevel::Scalar => dot_i8_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            assert!(level.available(), "AVX2 not available on this machine");
            // SAFETY: AVX2 support verified at runtime above.
            unsafe { x86::dot_i8_avx2(a, b) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            assert!(level.available(), "NEON not available on this machine");
            // SAFETY: NEON support verified at runtime above.
            unsafe { arm::dot_i8_neon(a, b) }
        }
        #[allow(unreachable_patterns)]
        other => panic!("SIMD level {other:?} is not supported on this target"),
    }
}

/// `C = A · Bᵀ` integer GEMM on an explicit arm, writing the `m × n`
/// result into `out` (cleared and refilled; no reallocation once `out`
/// has capacity). `a` is `m × k`, `b` is `n × k`, both row-major.
///
/// The AVX2 arm runs a register-blocked micro-kernel: each block of two
/// `a` rows by four `b` rows keeps eight accumulators in registers, so
/// every loaded `b` chunk feeds both `a` rows and every `a` chunk four
/// `b` rows. The tails of `m`, `n` and `k` are handled inside the kernel.
/// On a CPU with AVX-VNNI (detected once per process) the same blocks use
/// `vpdpbusd` on `b + 128` and subtract `128 · Σa` once per `a` row;
/// otherwise they use `pmaddwd` on sign-extended `i16`. Both match the
/// scalar twin bit for bit for every `k ≤ `[`DOT_I8_MAX_LEN`](crate::matmul::DOT_I8_MAX_LEN).
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with the dimensions or
/// `level` is not available on this machine.
pub fn matmul_i8t_on(
    level: SimdLevel,
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    out: &mut Vec<i32>,
) {
    assert_eq!(a.len(), m * k, "a length mismatch");
    assert_eq!(b.len(), n * k, "b length mismatch");
    out.clear();
    match level {
        SimdLevel::Scalar => {
            out.reserve(m * n);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                for j in 0..n {
                    out.push(dot_i8_scalar(arow, &b[j * k..(j + 1) * k]));
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            assert!(level.available(), "AVX2 not available on this machine");
            out.resize(m * n, 0);
            // SAFETY: AVX2 support verified at runtime above, AVX-VNNI by
            // `has_avx_vnni`; `out` was just sized to exactly m*n.
            unsafe {
                if x86::has_avx_vnni() {
                    x86::matmul_i8t_vnni(a, b, m, k, n, out)
                } else {
                    x86::matmul_i8t_avx2(a, b, m, k, n, out)
                }
            }
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            assert!(level.available(), "NEON not available on this machine");
            out.resize(m * n, 0);
            // SAFETY: NEON support verified at runtime above; `out` was
            // just sized to exactly m*n.
            unsafe { arm::matmul_i8t_neon(a, b, m, k, n, out) }
        }
        #[allow(unreachable_patterns)]
        other => panic!("SIMD level {other:?} is not supported on this target"),
    }
}

/// The scalar SAS exponential the vector arms are pinned against:
/// `exp(x) ≈ lut[⌊-x⌋] · poly(frac)` for max-subtracted scores, with
/// NaN → 0, positive jitter clamped to 0, and strict-below-threshold
/// sparsified to exactly 0. Operation-for-operation identical to
/// `turbo_softmax::Sas::exp` (pinned by that crate's tests).
#[inline]
pub fn sas_exp_scalar(x: f32, threshold: f32, lut: &[f32], coeffs: [f32; 4]) -> f32 {
    if x.is_nan() {
        return 0.0;
    }
    let x = x.min(0.0);
    if x < threshold {
        return 0.0;
    }
    let t = -x;
    let n = t as usize;
    let frac = t - n as f32;
    let [c0, c1, c2, c3] = coeffs;
    let p = ((c3 * frac + c2) * frac + c1) * frac + c0;
    lut[n] * p
}

/// Vectorized SAS tile-exp over a row of `f32` scores: writes
/// `exp(scores[j] - m_new)` (per [`sas_exp_scalar`]) into `out[j]`.
///
/// Returns `false` — leaving `out` untouched — when `level` has no
/// vector arm for this kernel (Scalar) or the LUT exceeds the 8 entries
/// a register-resident table holds (i.e. `threshold < -7`: one 256-bit
/// register on AVX2, a `vqtbl2q` byte-table pair on NEON); the caller
/// then runs its scalar twin. Returns `true` after filling `out` with
/// results bit-identical to the scalar twin.
///
/// # Panics
///
/// Panics if `scores` and `out` differ in length, `lut` is empty, or an
/// unavailable level is requested.
pub fn sas_exp_row_on(
    level: SimdLevel,
    scores: &[f32],
    m_new: f32,
    threshold: f32,
    lut: &[f32],
    coeffs: [f32; 4],
    out: &mut [f32],
) -> bool {
    assert_eq!(scores.len(), out.len(), "score/probability length mismatch");
    assert!(!lut.is_empty(), "empty LUT");
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if lut.len() <= F32_SIMD_LANES => {
            assert!(level.available(), "AVX2 not available on this machine");
            // SAFETY: AVX2 support verified at runtime above.
            unsafe { x86::sas_exp_row_avx2(scores, m_new, threshold, lut, coeffs, out) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon if lut.len() <= F32_SIMD_LANES => {
            assert!(level.available(), "NEON not available on this machine");
            // SAFETY: NEON support verified at runtime above.
            unsafe { arm::sas_exp_row_neon(scores, m_new, threshold, lut, coeffs, out) };
            true
        }
        _ => false,
    }
}

/// As [`sas_exp_row_on`], fused with the integer-score epilogue: the
/// input is a row of raw `i32` GEMM sums and each lane computes
/// `x = codes[j] as f32 * s_scale - m_new` before the SAS exponential —
/// the INT8 score tile never materializes as an `f32` buffer.
///
/// # Panics
///
/// As [`sas_exp_row_on`].
#[allow(clippy::too_many_arguments)] // mirrors sas_exp_row_on plus the (codes, scale) pair
pub fn sas_exp_scaled_row_on(
    level: SimdLevel,
    codes: &[i32],
    s_scale: f32,
    m_new: f32,
    threshold: f32,
    lut: &[f32],
    coeffs: [f32; 4],
    out: &mut [f32],
) -> bool {
    assert_eq!(codes.len(), out.len(), "score/probability length mismatch");
    assert!(!lut.is_empty(), "empty LUT");
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if lut.len() <= F32_SIMD_LANES => {
            assert!(level.available(), "AVX2 not available on this machine");
            // SAFETY: AVX2 support verified at runtime above.
            unsafe {
                x86::sas_exp_scaled_row_avx2(codes, s_scale, m_new, threshold, lut, coeffs, out)
            };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon if lut.len() <= F32_SIMD_LANES => {
            assert!(level.available(), "NEON not available on this machine");
            // SAFETY: NEON support verified at runtime above.
            unsafe {
                arm::sas_exp_scaled_row_neon(codes, s_scale, m_new, threshold, lut, coeffs, out)
            };
            true
        }
        _ => false,
    }
}

/// The scalar symmetric-INT8 encode the vector arm is pinned against:
/// `(v / scale).round().clamp(-127, 127) as i8` (round half away from
/// zero, saturating cast, NaN → 0).
#[inline]
pub fn quantize_i8_scalar(v: f32, scale: f32) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

/// Vectorized symmetric-INT8 encode pass: writes
/// [`quantize_i8_scalar`]`(x[j], scale)` into `out[j]`.
///
/// Returns `false` (with `out` untouched) when `level` has no vector arm
/// for this kernel; the caller runs its scalar twin. Both vector arms use
/// true IEEE division and round half away from zero so results are
/// bit-identical to the scalar twin: AVX2 builds the rounding from an
/// explicit `trunc` + `|frac| ≥ 0.5` bump (its native rounding is
/// half-to-even, which would differ on exact `.5` midpoints), NEON uses
/// the hardware `FRINTA`, which is half-away by definition.
///
/// # Panics
///
/// Panics if `x` and `out` differ in length or an unavailable level is
/// requested.
pub fn quantize_i8_row_on(level: SimdLevel, x: &[f32], scale: f32, out: &mut [i8]) -> bool {
    assert_eq!(x.len(), out.len(), "input/output length mismatch");
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            assert!(level.available(), "AVX2 not available on this machine");
            // SAFETY: AVX2 support verified at runtime above.
            unsafe { x86::quantize_i8_avx2(x, scale, out) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            assert!(level.available(), "NEON not available on this machine");
            // SAFETY: NEON support verified at runtime above.
            unsafe { arm::quantize_i8_neon(x, scale, out) };
            true
        }
        _ => false,
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 kernel arms. Every `unsafe` here is justified by the callers
    //! in the parent module verifying `is_x86_feature_detected!("avx2")`
    //! before entry; pointer arithmetic stays inside slice bounds by the
    //! loop conditions.

    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Sign-extend 16 `i8` from each operand and multiply-accumulate
    /// pairs into 8 `i32` lanes (`pmaddwd`): 16 exact products per step.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn madd16(a: *const i8, b: *const i8) -> __m256i {
        unsafe {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b as *const __m128i));
            _mm256_madd_epi16(va, vb)
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b10_11_00_01));
        _mm_cvtsi128_si32(s)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        unsafe {
            let mut acc = _mm256_setzero_si256();
            let mut i = 0;
            while i + 32 <= n {
                let m0 = madd16(ap.add(i), bp.add(i));
                let m1 = madd16(ap.add(i + 16), bp.add(i + 16));
                acc = _mm256_add_epi32(acc, _mm256_add_epi32(m0, m1));
                i += 32;
            }
            if i + 16 <= n {
                acc = _mm256_add_epi32(acc, madd16(ap.add(i), bp.add(i)));
                i += 16;
            }
            let mut sum = hsum_epi32(acc);
            while i < n {
                sum += *ap.add(i) as i32 * *bp.add(i) as i32;
                i += 1;
            }
            sum
        }
    }

    /// Whether the CPU has AVX-VNNI (`vpdpbusd` on 256-bit registers),
    /// detected once per process and cached like [`super::simd_level`].
    pub(super) fn has_avx_vnni() -> bool {
        static VNNI: OnceLock<bool> = OnceLock::new();
        *VNNI.get_or_init(|| is_x86_feature_detected!("avxvnni"))
    }

    /// Four accumulators reduced to their four sums, in order.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce4(a: __m256i, b: __m256i, c: __m256i, d: __m256i) -> __m128i {
        let h = _mm256_hadd_epi32(_mm256_hadd_epi32(a, b), _mm256_hadd_epi32(c, d));
        _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1))
    }

    /// Bytes of `k` the widest GEMM step consumes, and so the length of
    /// the zero-padded tail buffers.
    const KC_MAX: usize = 32;

    /// One arm of the register-blocked `C = A · Bᵀ` micro-kernel: how a
    /// step of `KC` bytes of `k` feeds an `MR × NR` block of accumulators.
    ///
    /// Each accumulator holds eight `i32` partial sums of one output. After
    /// the last step the driver reduces them and subtracts the row's
    /// [`row_offset`](GemmArm::row_offset). The methods are
    /// `#[inline(always)]` without `#[target_feature]`: they compile into
    /// the `#[target_feature]` entry point of their arm, which enables the
    /// instructions they use.
    trait GemmArm {
        /// Bytes of `k` one [`step`](GemmArm::step) consumes.
        const KC: usize;

        /// Adds the products of the `KC` bytes at `a[r] + o` and `b[c] + o`
        /// into `acc[r][c]`.
        ///
        /// Written with plain loops, not closures over arrays: an
        /// out-of-line closure would call the intrinsics without the
        /// entry point's features.
        ///
        /// # Safety
        ///
        /// Every pointer plus `o` must be valid for a `KC`-byte read, and
        /// the CPU must support the arm's instructions.
        unsafe fn step<const MR: usize, const NR: usize>(
            acc: &mut [[__m256i; NR]; MR],
            a: &[*const i8; MR],
            b: &[*const i8; NR],
            o: usize,
        );

        /// What every output of one `a` row subtracts after reduction. The
        /// row is `steps` full steps at `a` followed by one step at `tail`.
        ///
        /// # Safety
        ///
        /// `a` must be valid for `steps · KC` bytes, `tail` for `KC`, and
        /// the CPU must support the arm's instructions.
        unsafe fn row_offset(a: *const i8, steps: usize, tail: *const i8) -> i32;
    }

    /// The AVX2 arm: sign-extend 16 bytes to `i16` and multiply-accumulate
    /// pairs with `pmaddwd`. Exact for every `i8`, −128 included: a pair
    /// sums to at most `2 · 128² = 2¹⁵`.
    struct Madd;

    impl GemmArm for Madd {
        const KC: usize = 16;

        #[inline(always)]
        unsafe fn step<const MR: usize, const NR: usize>(
            acc: &mut [[__m256i; NR]; MR],
            a: &[*const i8; MR],
            b: &[*const i8; NR],
            o: usize,
        ) {
            // SAFETY: the caller guarantees 16 readable bytes at each
            // pointer plus `o`, and AVX2.
            unsafe {
                let mut va = [_mm256_setzero_si256(); MR];
                for (v, &p) in va.iter_mut().zip(a) {
                    *v = _mm256_cvtepi8_epi16(_mm_loadu_si128(p.add(o) as *const __m128i));
                }
                for (c, &p) in b.iter().enumerate() {
                    let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(p.add(o) as *const __m128i));
                    for (acc_row, &va_r) in acc.iter_mut().zip(&va) {
                        acc_row[c] = _mm256_add_epi32(acc_row[c], _mm256_madd_epi16(va_r, vb));
                    }
                }
            }
        }

        #[inline(always)]
        unsafe fn row_offset(_: *const i8, _: usize, _: *const i8) -> i32 {
            0
        }
    }

    /// The AVX-VNNI arm: `vpdpbusd` multiplies unsigned by signed bytes and
    /// adds four products into each `i32` lane, 32 products per step.
    ///
    /// `b` is biased to unsigned with `b ^ 0x80`, which is `b + 128`, so
    /// every output gains `128 · Σa` over its `a` row;
    /// [`row_offset`](GemmArm::row_offset) returns that term once per row.
    /// All sums wrap modulo 2³², so the corrected result is exact whenever
    /// the true sum fits in `i32`, which
    /// [`DOT_I8_MAX_LEN`](crate::matmul::DOT_I8_MAX_LEN) guarantees.
    struct Vnni;

    impl GemmArm for Vnni {
        const KC: usize = 32;

        #[inline(always)]
        unsafe fn step<const MR: usize, const NR: usize>(
            acc: &mut [[__m256i; NR]; MR],
            a: &[*const i8; MR],
            b: &[*const i8; NR],
            o: usize,
        ) {
            // SAFETY: the caller guarantees 32 readable bytes at each
            // pointer plus `o`, and AVX2 + AVX-VNNI.
            unsafe {
                let bias = _mm256_set1_epi8(-128);
                let mut vb = [_mm256_setzero_si256(); NR];
                for (v, &p) in vb.iter_mut().zip(b) {
                    *v = _mm256_xor_si256(_mm256_loadu_si256(p.add(o) as *const __m256i), bias);
                }
                for (acc_row, &p) in acc.iter_mut().zip(a) {
                    let va = _mm256_loadu_si256(p.add(o) as *const __m256i);
                    for (x, &vb_c) in acc_row.iter_mut().zip(&vb) {
                        *x = _mm256_dpbusd_avx_epi32(*x, vb_c, va);
                    }
                }
            }
        }

        #[inline(always)]
        unsafe fn row_offset(a: *const i8, steps: usize, tail: *const i8) -> i32 {
            // SAFETY: the caller guarantees the reads and AVX2 + AVX-VNNI.
            unsafe {
                // 0x80 as the unsigned operand: each lane sums 128 · a.
                let bias = _mm256_set1_epi8(-128);
                let mut acc = _mm256_setzero_si256();
                for s in 0..steps {
                    let va = _mm256_loadu_si256(a.add(s * Self::KC) as *const __m256i);
                    acc = _mm256_dpbusd_avx_epi32(acc, bias, va);
                }
                let vt = _mm256_loadu_si256(tail as *const __m256i);
                hsum_epi32(_mm256_dpbusd_avx_epi32(acc, bias, vt))
            }
        }
    }

    /// The `a` side of one block of `MR` output rows.
    struct Panel<const MR: usize> {
        /// First output row.
        i0: usize,
        /// Start of each `a` row.
        row: [*const i8; MR],
        /// Each row's `k % KC` tail bytes, copied into a zero-padded
        /// `KC_MAX`-byte buffer.
        tail: [*const i8; MR],
        /// Each row's [`GemmArm::row_offset`].
        offset: [i32; MR],
    }

    /// `C = A · Bᵀ` on arm `G`, two `a` rows by four `b` rows per block:
    /// each loaded `b` chunk feeds both `a` rows and each `a` chunk four
    /// `b` rows. An odd last row runs as a one-row block.
    ///
    /// # Safety
    ///
    /// `a` must be `m × k`, `b` `n × k` and `out` `m × n`, and the CPU must
    /// support the arm's instructions.
    #[inline(always)]
    unsafe fn gemm<G: GemmArm>(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, out: &mut [i32]) {
        debug_assert!(a.len() == m * k && b.len() == n * k && out.len() == m * n);
        // The last `KC_MAX` bytes of `b` (all of it if shorter), followed
        // by `KC_MAX` zero bytes: a tail read that would leave `b` reads
        // the same bytes here instead.
        let mut b_end = [0i8; 2 * KC_MAX];
        let last = b.len().min(KC_MAX);
        b_end[KC_MAX - last..KC_MAX].copy_from_slice(&b[b.len() - last..]);
        let mut i = 0;
        // SAFETY: forwarded from the caller; every block stays in rows
        // `i..i + MR ≤ m`.
        unsafe {
            while i + 2 <= m {
                rows::<G, 2>(a, b, &b_end, i, k, n, out);
                i += 2;
            }
            if i < m {
                rows::<G, 1>(a, b, &b_end, i, k, n, out);
            }
        }
    }

    /// Output rows `i0..i0 + MR` of [`gemm`], four columns per block and
    /// the last `n % 4` one at a time.
    ///
    /// Each `a` row's `k % KC` tail is copied into a zero-padded buffer and
    /// runs as one more full step. The `b` side of that step may read past
    /// the end of its row into the next one: those bytes meet the zero
    /// padding and add nothing, so only a read that would leave `b` is
    /// served from `b_end`, the copy of its last bytes.
    ///
    /// # Safety
    ///
    /// As [`gemm`], with `i0 + MR ≤ m`.
    #[inline(always)]
    unsafe fn rows<G: GemmArm, const MR: usize>(
        a: &[i8],
        b: &[i8],
        b_end: &[i8; 2 * KC_MAX],
        i0: usize,
        k: usize,
        n: usize,
        out: &mut [i32],
    ) {
        let steps = k / G::KC;
        let k_main = steps * G::KC;
        let mut tail_buf = [[0i8; KC_MAX]; MR];
        let mut p = Panel {
            i0,
            row: [std::ptr::null(); MR],
            tail: [std::ptr::null(); MR],
            offset: [0; MR],
        };
        for (r, buf) in tail_buf.iter_mut().enumerate() {
            let row = &a[(i0 + r) * k..(i0 + r + 1) * k];
            buf[..k - k_main].copy_from_slice(&row[k_main..]);
            p.row[r] = row.as_ptr();
            p.tail[r] = buf.as_ptr();
            // SAFETY: `row` holds `steps · KC` bytes before its tail, the
            // tail buffer is `KC_MAX ≥ KC` bytes, and the caller
            // guarantees the CPU features.
            p.offset[r] = unsafe { G::row_offset(p.row[r], steps, p.tail[r]) };
        }
        let mut j = 0;
        // SAFETY: forwarded from the caller; each block covers columns
        // `j..j + NR ≤ n`.
        unsafe {
            while j + 4 <= n {
                block::<G, MR, 4>(&p, b, b_end, j, k, n, out);
                j += 4;
            }
            while j < n {
                block::<G, MR, 1>(&p, b, b_end, j, k, n, out);
                j += 1;
            }
        }
    }

    /// The `MR × NR` outputs of rows `p.i0..` and columns `j0..j0 + NR`.
    ///
    /// # Safety
    ///
    /// As [`rows`], with `j0 + NR ≤ n`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // the a panel, both b views and the output geometry
    unsafe fn block<G: GemmArm, const MR: usize, const NR: usize>(
        p: &Panel<MR>,
        b: &[i8],
        b_end: &[i8; 2 * KC_MAX],
        j0: usize,
        k: usize,
        n: usize,
        out: &mut [i32],
    ) {
        let steps = k / G::KC;
        let k_main = steps * G::KC;
        let mut acc = [[_mm256_setzero_si256(); NR]; MR];
        // SAFETY: full steps read bytes `s·KC..(s+1)·KC ≤ k` of rows that
        // lie inside `a` and `b`; a tail read of `b` either ends inside
        // `b` (checked) or starts at `start + KC_MAX - b.len()` in
        // `b_end`, which lies in `KC_MAX - KC + 1..KC_MAX` since
        // `b.len() - KC < start < b.len()`, so it ends inside `b_end`; the
        // tail of `a` comes from its buffer. Output index
        // `(p.i0 + r) · n + j0 + c` is below `m · n = out.len()` by the
        // row and column bounds.
        unsafe {
            let mut brow = [b.as_ptr(); NR];
            for (c, bp) in brow.iter_mut().enumerate() {
                *bp = bp.add((j0 + c) * k);
            }
            for s in 0..steps {
                G::step(&mut acc, &p.row, &brow, s * G::KC);
            }
            if k > k_main {
                for (c, bp) in brow.iter_mut().enumerate() {
                    let start = (j0 + c) * k + k_main;
                    *bp = if start + G::KC <= b.len() {
                        bp.add(k_main)
                    } else {
                        b_end.as_ptr().add(start + KC_MAX - b.len())
                    };
                }
                G::step(&mut acc, &p.tail, &brow, 0);
            }
            for (r, acc_row) in acc.iter().enumerate() {
                let dst = out.as_mut_ptr().add((p.i0 + r) * n + j0);
                let off = p.offset[r];
                if NR.is_multiple_of(4) {
                    for c in (0..NR).step_by(4) {
                        let v = reduce4(acc_row[c], acc_row[c + 1], acc_row[c + 2], acc_row[c + 3]);
                        let v = _mm_sub_epi32(v, _mm_set1_epi32(off));
                        _mm_storeu_si128(dst.add(c) as *mut __m128i, v);
                    }
                } else {
                    for (c, &x) in acc_row.iter().enumerate() {
                        *dst.add(c) = hsum_epi32(x).wrapping_sub(off);
                    }
                }
            }
        }
    }

    /// The blocked micro-kernel on the AVX2 `pmaddwd` arm.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2; `a` must be `m × k`, `b` `n × k` and `out`
    /// `m × n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_i8t_avx2(
        a: &[i8],
        b: &[i8],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [i32],
    ) {
        // SAFETY: the caller checked the shapes; AVX2 is enabled here.
        unsafe { gemm::<Madd>(a, b, m, k, n, out) }
    }

    /// The blocked micro-kernel on the AVX-VNNI `vpdpbusd` arm.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2 and AVX-VNNI; `a` must be `m × k`, `b`
    /// `n × k` and `out` `m × n`.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn matmul_i8t_vnni(
        a: &[i8],
        b: &[i8],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [i32],
    ) {
        // SAFETY: the caller checked the shapes; AVX2 and AVX-VNNI are
        // enabled here.
        unsafe { gemm::<Vnni>(a, b, m, k, n, out) }
    }

    /// SAS constants pre-broadcast into registers.
    struct SasConsts {
        thr: __m256,
        lut: __m256,
        c0: __m256,
        c1: __m256,
        c2: __m256,
        c3: __m256,
        zero: __m256,
        signflip: __m256,
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sas_consts(threshold: f32, lut: &[f32], coeffs: [f32; 4]) -> SasConsts {
        debug_assert!(lut.len() <= 8);
        let mut padded = [0.0f32; 8];
        padded[..lut.len()].copy_from_slice(lut);
        unsafe {
            SasConsts {
                thr: _mm256_set1_ps(threshold),
                lut: _mm256_loadu_ps(padded.as_ptr()),
                c0: _mm256_set1_ps(coeffs[0]),
                c1: _mm256_set1_ps(coeffs[1]),
                c2: _mm256_set1_ps(coeffs[2]),
                c3: _mm256_set1_ps(coeffs[3]),
                zero: _mm256_setzero_ps(),
                signflip: _mm256_set1_ps(-0.0),
            }
        }
    }

    /// Eight lanes of [`super::sas_exp_scalar`], bit-identical per lane:
    /// the keep-mask (`x ≥ thr`, ordered — false for NaN) reproduces
    /// both the sparsification cutoff and the NaN→0 rule; `min(x, 0)`
    /// clamps positive jitter; Horner runs as separate mul/add (no FMA);
    /// the ≤8-entry LUT is a register permute.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sas_exp8(x: __m256, c: &SasConsts) -> __m256 {
        let keep = _mm256_cmp_ps::<_CMP_GE_OQ>(x, c.thr);
        let xz = _mm256_min_ps(x, c.zero);
        let t = _mm256_xor_ps(xz, c.signflip);
        let n = _mm256_cvttps_epi32(t);
        let frac = _mm256_sub_ps(t, _mm256_cvtepi32_ps(n));
        let mut p = _mm256_add_ps(_mm256_mul_ps(c.c3, frac), c.c2);
        p = _mm256_add_ps(_mm256_mul_ps(p, frac), c.c1);
        p = _mm256_add_ps(_mm256_mul_ps(p, frac), c.c0);
        let lutv = _mm256_permutevar8x32_ps(c.lut, n);
        _mm256_and_ps(_mm256_mul_ps(lutv, p), keep)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sas_exp_row_avx2(
        scores: &[f32],
        m_new: f32,
        threshold: f32,
        lut: &[f32],
        coeffs: [f32; 4],
        out: &mut [f32],
    ) {
        let n = scores.len();
        unsafe {
            let c = sas_consts(threshold, lut, coeffs);
            let vm = _mm256_set1_ps(m_new);
            let mut i = 0;
            while i + 8 <= n {
                let x = _mm256_sub_ps(_mm256_loadu_ps(scores.as_ptr().add(i)), vm);
                _mm256_storeu_ps(out.as_mut_ptr().add(i), sas_exp8(x, &c));
                i += 8;
            }
            while i < n {
                out[i] = super::sas_exp_scalar(scores[i] - m_new, threshold, lut, coeffs);
                i += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sas_exp_scaled_row_avx2(
        codes: &[i32],
        s_scale: f32,
        m_new: f32,
        threshold: f32,
        lut: &[f32],
        coeffs: [f32; 4],
        out: &mut [f32],
    ) {
        let n = codes.len();
        unsafe {
            let c = sas_consts(threshold, lut, coeffs);
            let vs = _mm256_set1_ps(s_scale);
            let vm = _mm256_set1_ps(m_new);
            let mut i = 0;
            while i + 8 <= n {
                let ci = _mm256_loadu_si256(codes.as_ptr().add(i) as *const __m256i);
                let x = _mm256_sub_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(ci), vs), vm);
                _mm256_storeu_ps(out.as_mut_ptr().add(i), sas_exp8(x, &c));
                i += 8;
            }
            while i < n {
                let x = codes[i] as f32 * s_scale - m_new;
                out[i] = super::sas_exp_scalar(x, threshold, lut, coeffs);
                i += 1;
            }
        }
    }

    /// Eight lanes of `(v / scale).round().clamp(-127, 127)` as `i32`,
    /// bit-identical to the scalar twin: true division, then
    /// round-half-away-from-zero built from `trunc` + a `|frac| ≥ 0.5`
    /// bump (the naive `trunc(x + copysign(0.5, x))` is *wrong* — e.g.
    /// the largest f32 below 0.5 rounds up through the addition), then
    /// clamp, with NaN lanes forced to 0 like Rust's saturating cast.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quant8(v: __m256, vscale: __m256) -> __m256i {
        let q = _mm256_div_ps(v, vscale);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(q);
        let d = _mm256_sub_ps(q, t);
        let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let absd = _mm256_and_ps(d, absmask);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let sign = _mm256_and_ps(q, _mm256_set1_ps(-0.0));
        let bump = _mm256_and_ps(
            _mm256_or_ps(one, sign),
            _mm256_cmp_ps::<_CMP_GE_OQ>(absd, half),
        );
        let r = _mm256_add_ps(t, bump);
        let clamped =
            _mm256_max_ps(_mm256_set1_ps(-127.0), _mm256_min_ps(r, _mm256_set1_ps(127.0)));
        let nan = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(q, q));
        _mm256_andnot_si256(nan, _mm256_cvtps_epi32(clamped))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_i8_avx2(x: &[f32], scale: f32, out: &mut [i8]) {
        let n = x.len();
        unsafe {
            let vscale = _mm256_set1_ps(scale);
            // Dword-permute indices that undo the 128-bit-lane interleave
            // of packs_epi32 + packs_epi16.
            let fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
            let mut i = 0;
            while i + 32 <= n {
                let i0 = quant8(_mm256_loadu_ps(x.as_ptr().add(i)), vscale);
                let i1 = quant8(_mm256_loadu_ps(x.as_ptr().add(i + 8)), vscale);
                let i2 = quant8(_mm256_loadu_ps(x.as_ptr().add(i + 16)), vscale);
                let i3 = quant8(_mm256_loadu_ps(x.as_ptr().add(i + 24)), vscale);
                // Values are already in [-127, 127]; packs saturation is
                // a no-op, the permute restores element order.
                let p16a = _mm256_packs_epi32(i0, i1);
                let p16b = _mm256_packs_epi32(i2, i3);
                let p8 = _mm256_packs_epi16(p16a, p16b);
                let fixed = _mm256_permutevar8x32_epi32(p8, fix);
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, fixed);
                i += 32;
            }
            while i < n {
                out[i] = super::quantize_i8_scalar(x[i], scale);
                i += 1;
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    //! NEON kernel arms. Every `unsafe` here is justified by the callers
    //! in the parent module verifying NEON availability before entry;
    //! pointer arithmetic stays inside slice bounds by the loop
    //! conditions. The float kernels follow the same bit-identity
    //! discipline as the AVX2 arm: separate mul/add (intrinsics never
    //! contract to FMA), true division, and masked lanes resolving to
    //! the exact values the scalar twin produces.

    use std::arch::aarch64::*;

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot_i8_neon(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        unsafe {
            let mut acc = vdupq_n_s32(0);
            let mut i = 0;
            while i + 16 <= n {
                let va = vld1q_s8(ap.add(i));
                let vb = vld1q_s8(bp.add(i));
                let lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
                let hi = vmull_s8(vget_high_s8(va), vget_high_s8(vb));
                acc = vpadalq_s16(acc, lo);
                acc = vpadalq_s16(acc, hi);
                i += 16;
            }
            let mut sum = vaddvq_s32(acc);
            while i < n {
                sum += *ap.add(i) as i32 * *bp.add(i) as i32;
                i += 1;
            }
            sum
        }
    }

    /// Widen one 16-byte chunk of each operand and accumulate the exact
    /// `i16` products into `acc`'s four `i32` lanes.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn mac16(acc: int32x4_t, a: int8x16_t, b: int8x16_t) -> int32x4_t {
        let lo = vmull_s8(vget_low_s8(a), vget_low_s8(b));
        let hi = vmull_s8(vget_high_s8(a), vget_high_s8(b));
        vpadalq_s16(vpadalq_s16(acc, lo), hi)
    }

    /// `C = A · Bᵀ` with four `b` rows per sweep, so each 16-wide `a`
    /// chunk is loaded once per four outputs (mirrors the AVX2
    /// micro-kernel). Exact integer sums — bit-identical to scalar at
    /// any lane split.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn matmul_i8t_neon(
        a: &[i8],
        b: &[i8],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [i32],
    ) {
        debug_assert_eq!(out.len(), m * n);
        unsafe {
            for i in 0..m {
                let arow = a.as_ptr().add(i * k);
                let orow = out.as_mut_ptr().add(i * n);
                let mut j = 0;
                while j + 4 <= n {
                    let b0 = b.as_ptr().add(j * k);
                    let b1 = b.as_ptr().add((j + 1) * k);
                    let b2 = b.as_ptr().add((j + 2) * k);
                    let b3 = b.as_ptr().add((j + 3) * k);
                    let mut acc0 = vdupq_n_s32(0);
                    let mut acc1 = vdupq_n_s32(0);
                    let mut acc2 = vdupq_n_s32(0);
                    let mut acc3 = vdupq_n_s32(0);
                    let mut t = 0;
                    while t + 16 <= k {
                        let va = vld1q_s8(arow.add(t));
                        acc0 = mac16(acc0, va, vld1q_s8(b0.add(t)));
                        acc1 = mac16(acc1, va, vld1q_s8(b1.add(t)));
                        acc2 = mac16(acc2, va, vld1q_s8(b2.add(t)));
                        acc3 = mac16(acc3, va, vld1q_s8(b3.add(t)));
                        t += 16;
                    }
                    let mut sums = [
                        vaddvq_s32(acc0),
                        vaddvq_s32(acc1),
                        vaddvq_s32(acc2),
                        vaddvq_s32(acc3),
                    ];
                    while t < k {
                        let av = *arow.add(t) as i32;
                        sums[0] += av * *b0.add(t) as i32;
                        sums[1] += av * *b1.add(t) as i32;
                        sums[2] += av * *b2.add(t) as i32;
                        sums[3] += av * *b3.add(t) as i32;
                        t += 1;
                    }
                    *orow.add(j) = sums[0];
                    *orow.add(j + 1) = sums[1];
                    *orow.add(j + 2) = sums[2];
                    *orow.add(j + 3) = sums[3];
                    j += 4;
                }
                while j < n {
                    let arow_s = std::slice::from_raw_parts(arow, k);
                    let brow = std::slice::from_raw_parts(b.as_ptr().add(j * k), k);
                    *orow.add(j) = dot_i8_neon(arow_s, brow);
                    j += 1;
                }
            }
        }
    }

    /// SAS constants pre-broadcast into registers. The ≤8-entry `f32`
    /// LUT lives in a `vqtbl2q` byte-table pair; each lane's lookup
    /// builds the four byte indices `4n..4n+3` of entry `n`.
    struct SasConsts {
        thr: float32x4_t,
        tbl: uint8x16x2_t,
        c0: float32x4_t,
        c1: float32x4_t,
        c2: float32x4_t,
        c3: float32x4_t,
        zero: float32x4_t,
    }

    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn sas_consts(threshold: f32, lut: &[f32], coeffs: [f32; 4]) -> SasConsts {
        debug_assert!(lut.len() <= 8);
        let mut padded = [0.0f32; 8];
        padded[..lut.len()].copy_from_slice(lut);
        unsafe {
            SasConsts {
                thr: vdupq_n_f32(threshold),
                tbl: uint8x16x2_t(
                    vreinterpretq_u8_f32(vld1q_f32(padded.as_ptr())),
                    vreinterpretq_u8_f32(vld1q_f32(padded.as_ptr().add(4))),
                ),
                c0: vdupq_n_f32(coeffs[0]),
                c1: vdupq_n_f32(coeffs[1]),
                c2: vdupq_n_f32(coeffs[2]),
                c3: vdupq_n_f32(coeffs[3]),
                zero: vdupq_n_f32(0.0),
            }
        }
    }

    /// Four lanes of [`super::sas_exp_scalar`], bit-identical per lane:
    /// the keep-mask (`x ≥ thr`, false for NaN) reproduces both the
    /// sparsification cutoff and the NaN→0 rule; `min(x, 0)` clamps
    /// positive jitter (a NaN lane propagates NaN here, unlike the AVX2
    /// `min`, but the keep-mask AND resolves both to `+0.0`); `FCVTZS`
    /// truncates like `cvttps`; Horner runs as separate mul/add; the
    /// LUT lookup is a byte-table permute whose out-of-range indices
    /// (only on masked lanes) read as 0.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn sas_exp4(x: float32x4_t, c: &SasConsts) -> float32x4_t {
        let keep = vcgeq_f32(x, c.thr);
        let xz = vminq_f32(x, c.zero);
        let t = vnegq_f32(xz);
        let n = vcvtq_s32_f32(t);
        let frac = vsubq_f32(t, vcvtq_f32_s32(n));
        let mut p = vaddq_f32(vmulq_f32(c.c3, frac), c.c2);
        p = vaddq_f32(vmulq_f32(p, frac), c.c1);
        p = vaddq_f32(vmulq_f32(p, frac), c.c0);
        // Entry n occupies bytes 4n..4n+3: replicate 4n into each byte
        // of the lane and add the 0,1,2,3 offsets.
        let n4 = vmulq_s32(vshlq_n_s32::<2>(n), vdupq_n_s32(0x0101_0101));
        let idx = vreinterpretq_u8_s32(vaddq_s32(n4, vdupq_n_s32(0x0302_0100)));
        let lutv = vreinterpretq_f32_u8(vqtbl2q_u8(c.tbl, idx));
        vreinterpretq_f32_u32(vandq_u32(vreinterpretq_u32_f32(vmulq_f32(lutv, p)), keep))
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn sas_exp_row_neon(
        scores: &[f32],
        m_new: f32,
        threshold: f32,
        lut: &[f32],
        coeffs: [f32; 4],
        out: &mut [f32],
    ) {
        let n = scores.len();
        unsafe {
            let c = sas_consts(threshold, lut, coeffs);
            let vm = vdupq_n_f32(m_new);
            let mut i = 0;
            while i + 4 <= n {
                let x = vsubq_f32(vld1q_f32(scores.as_ptr().add(i)), vm);
                vst1q_f32(out.as_mut_ptr().add(i), sas_exp4(x, &c));
                i += 4;
            }
            while i < n {
                out[i] = super::sas_exp_scalar(scores[i] - m_new, threshold, lut, coeffs);
                i += 1;
            }
        }
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn sas_exp_scaled_row_neon(
        codes: &[i32],
        s_scale: f32,
        m_new: f32,
        threshold: f32,
        lut: &[f32],
        coeffs: [f32; 4],
        out: &mut [f32],
    ) {
        let n = codes.len();
        unsafe {
            let c = sas_consts(threshold, lut, coeffs);
            let vs = vdupq_n_f32(s_scale);
            let vm = vdupq_n_f32(m_new);
            let mut i = 0;
            while i + 4 <= n {
                let ci = vld1q_s32(codes.as_ptr().add(i));
                let x = vsubq_f32(vmulq_f32(vcvtq_f32_s32(ci), vs), vm);
                vst1q_f32(out.as_mut_ptr().add(i), sas_exp4(x, &c));
                i += 4;
            }
            while i < n {
                let x = codes[i] as f32 * s_scale - m_new;
                out[i] = super::sas_exp_scalar(x, threshold, lut, coeffs);
                i += 1;
            }
        }
    }

    /// Four lanes of `(v / scale).round().clamp(-127, 127)` as `i32`,
    /// bit-identical to the scalar twin: true division, then `FRINTA`
    /// (round to nearest, ties away from zero — exactly Rust's
    /// `f32::round`), then clamp. A NaN lane propagates through
    /// round/clamp and `FCVTZS` converts it to 0, matching the scalar
    /// saturating cast; ±∞ clamps to ±127.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn quant4(v: float32x4_t, vscale: float32x4_t) -> int32x4_t {
        let q = vdivq_f32(v, vscale);
        let r = vrndaq_f32(q);
        let clamped = vmaxq_f32(vdupq_n_f32(-127.0), vminq_f32(r, vdupq_n_f32(127.0)));
        vcvtq_s32_f32(clamped)
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn quantize_i8_neon(x: &[f32], scale: f32, out: &mut [i8]) {
        let n = x.len();
        unsafe {
            let vscale = vdupq_n_f32(scale);
            let mut i = 0;
            while i + 16 <= n {
                let i0 = quant4(vld1q_f32(x.as_ptr().add(i)), vscale);
                let i1 = quant4(vld1q_f32(x.as_ptr().add(i + 4)), vscale);
                let i2 = quant4(vld1q_f32(x.as_ptr().add(i + 8)), vscale);
                let i3 = quant4(vld1q_f32(x.as_ptr().add(i + 12)), vscale);
                // Values are already in [-127, 127]; the saturating
                // narrows are exact.
                let p16a = vcombine_s16(vqmovn_s32(i0), vqmovn_s32(i1));
                let p16b = vcombine_s16(vqmovn_s32(i2), vqmovn_s32(i3));
                let p8 = vcombine_s8(vqmovn_s16(p16a), vqmovn_s16(p16b));
                vst1q_s8(out.as_mut_ptr().add(i), p8);
                i += 16;
            }
            while i < n {
                out[i] = super::quantize_i8_scalar(x[i], scale);
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_i8(len: usize, mul: usize, add: usize) -> Vec<i8> {
        (0..len).map(|i| ((i * mul + add) % 255) as i8 ).collect()
    }

    fn simd_arm() -> Option<SimdLevel> {
        if SimdLevel::Avx2.available() {
            Some(SimdLevel::Avx2)
        } else if SimdLevel::Neon.available() {
            Some(SimdLevel::Neon)
        } else {
            None
        }
    }

    #[test]
    fn level_is_cached_and_consistent() {
        let first = simd_level();
        assert_eq!(first, simd_level());
        assert!(first.available());
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(SimdLevel::Scalar.available());
    }

    /// Exhaustive scalar-vs-SIMD dot equivalence at every ragged length
    /// around each vector-width boundary: `0..=4·lanes+3`.
    #[test]
    fn dot_equivalence_at_all_ragged_lengths() {
        let Some(arm) = simd_arm() else { return };
        for len in 0..=(4 * DOT_I8_SIMD_LANES + 3) {
            let a = pattern_i8(len, 73, 5);
            let b = pattern_i8(len, 131, 17);
            assert_eq!(
                dot_i8_on(SimdLevel::Scalar, &a, &b),
                dot_i8_on(arm, &a, &b),
                "len {len}"
            );
        }
    }

    #[test]
    fn dot_equivalence_at_extremes() {
        let Some(arm) = simd_arm() else { return };
        for len in [1usize, 15, 16, 17, 31, 32, 33, 64, 1000] {
            let a = vec![127i8; len];
            let b = vec![-128i8; len];
            assert_eq!(
                dot_i8_on(SimdLevel::Scalar, &a, &b),
                dot_i8_on(arm, &a, &b),
                "extreme len {len}"
            );
            let c = vec![-128i8; len];
            assert_eq!(
                dot_i8_on(SimdLevel::Scalar, &c, &b),
                dot_i8_on(arm, &c, &b),
                "extreme negative len {len}"
            );
        }
    }

    /// `(m, k, n)` shapes for the GEMM sweeps: every `m` in `1..=9` (the
    /// two-row blocks and an odd last row), `k` around both step widths
    /// (16 and 32 bytes) and `n` around the four-column blocks.
    fn gemm_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        (1..=9).flat_map(|m| {
            [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 128, 130]
                .into_iter()
                .flat_map(move |k| [1, 2, 3, 4, 5, 7, 8, 13].map(|n| (m, k, n)))
        })
    }

    /// Rows alternating between all −128 and all 127, starting at `first`.
    fn extreme_rows(rows: usize, k: usize, first: usize) -> Vec<i8> {
        (0..rows * k)
            .map(|i| [-128, 127][(i / k.max(1) + first) % 2])
            .collect()
    }

    /// Operand pairs for one shape: wrapping patterns (which hit both −128
    /// and 127) and extreme rows, so every sign pairing of the extremes
    /// meets on both operands.
    fn gemm_inputs(m: usize, k: usize, n: usize) -> [(Vec<i8>, Vec<i8>); 2] {
        [
            (pattern_i8(m * k, 37, 11), pattern_i8(n * k, 91, 3)),
            (extreme_rows(m, k, 0), extreme_rows(n, k, 1)),
        ]
    }

    /// Checks one GEMM arm against the scalar twin over [`gemm_shapes`],
    /// and at `k = DOT_I8_MAX_LEN` with worst-case operands, where the
    /// VNNI arm's biased sums wrap and only its offset makes them exact.
    fn assert_gemm_matches_scalar(
        arm: &str,
        gemm: impl Fn(&[i8], &[i8], usize, usize, usize) -> Vec<i32>,
    ) {
        let long = (3, crate::matmul::DOT_I8_MAX_LEN, 5);
        for (m, k, n) in gemm_shapes().chain([long]) {
            for (a, b) in gemm_inputs(m, k, n) {
                let mut scalar = Vec::new();
                matmul_i8t_on(SimdLevel::Scalar, &a, &b, m, k, n, &mut scalar);
                assert_eq!(scalar, gemm(&a, &b, m, k, n), "{arm} shape ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_equivalence_at_ragged_shapes() {
        let Some(arm) = simd_arm() else { return };
        assert_gemm_matches_scalar("dispatched", |a, b, m, k, n| {
            let mut out = Vec::new();
            matmul_i8t_on(arm, a, b, m, k, n, &mut out);
            out
        });
    }

    /// Both x86 GEMM arms called directly, whichever one dispatch picks.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn x86_gemm_arms_match_scalar() {
        if !SimdLevel::Avx2.available() {
            eprintln!("x86_gemm_arms_match_scalar: no AVX2, both x86 arms skipped");
            return;
        }
        assert_gemm_matches_scalar("avx2", |a, b, m, k, n| {
            let mut out = vec![0; m * n];
            // SAFETY: AVX2 checked above; the sweep builds consistent shapes.
            unsafe { x86::matmul_i8t_avx2(a, b, m, k, n, &mut out) };
            out
        });
        if !x86::has_avx_vnni() {
            eprintln!("x86_gemm_arms_match_scalar: no AVX-VNNI, the VNNI arm skipped");
            return;
        }
        assert_gemm_matches_scalar("vnni", |a, b, m, k, n| {
            let mut out = vec![0; m * n];
            // SAFETY: AVX2 and AVX-VNNI checked above; consistent shapes.
            unsafe { x86::matmul_i8t_vnni(a, b, m, k, n, &mut out) };
            out
        });
    }

    #[test]
    fn sas_exp_row_bit_identical_at_ragged_lengths() {
        let Some(arm) = simd_arm() else { return };
        // Paper-shaped SAS parameters.
        let threshold = -6.0f32;
        let lut: Vec<f32> = (0..=6).map(|i| (-(i as f32)).exp()).collect();
        let coeffs = [0.9996f32, -0.9922, 0.4626, -0.1025];
        for len in 0..=(4 * F32_SIMD_LANES + 3) {
            // Scores straddling the threshold, NaN, ±inf, positive jitter.
            let scores: Vec<f32> = (0..len)
                .map(|j| match j % 9 {
                    0 => 0.0,
                    1 => -1.3,
                    2 => -6.0,
                    3 => f32::from_bits((-6.0f32).to_bits() + 1),
                    4 => -42.0,
                    5 => f32::NEG_INFINITY,
                    6 => f32::NAN,
                    7 => 0.7,
                    _ => -(j as f32) * 0.37,
                })
                .collect();
            for m_new in [0.0f32, 2.5, -1.0] {
                let mut simd = vec![f32::NAN; len];
                assert!(sas_exp_row_on(
                    arm,
                    &scores,
                    m_new,
                    threshold,
                    &lut,
                    coeffs,
                    &mut simd
                ));
                for (j, &sv) in scores.iter().enumerate() {
                    let want = sas_exp_scalar(sv - m_new, threshold, &lut, coeffs);
                    assert_eq!(
                        simd[j].to_bits(),
                        want.to_bits(),
                        "len {len} j {j} score {sv} m_new {m_new}"
                    );
                }
            }
        }
    }

    #[test]
    fn sas_exp_scaled_row_bit_identical_at_ragged_lengths() {
        let Some(arm) = simd_arm() else { return };
        let threshold = -6.0f32;
        let lut: Vec<f32> = (0..=6).map(|i| (-(i as f32)).exp()).collect();
        let coeffs = [0.9996f32, -0.9922, 0.4626, -0.1025];
        let s_scale = 3.1e-4f32;
        for len in 0..=(4 * F32_SIMD_LANES + 3) {
            let codes: Vec<i32> = (0..len)
                .map(|j| ((j as i32 * 7919) % 40001) - 20000)
                .collect();
            for m_new in [0.0f32, 4.2] {
                let mut simd = vec![f32::NAN; len];
                assert!(sas_exp_scaled_row_on(
                    arm,
                    &codes,
                    s_scale,
                    m_new,
                    threshold,
                    &lut,
                    coeffs,
                    &mut simd
                ));
                for (j, &cv) in codes.iter().enumerate() {
                    let want =
                        sas_exp_scalar(cv as f32 * s_scale - m_new, threshold, &lut, coeffs);
                    assert_eq!(
                        simd[j].to_bits(),
                        want.to_bits(),
                        "len {len} j {j} code {cv} m_new {m_new}"
                    );
                }
            }
        }
    }

    #[test]
    fn sas_exp_row_declines_oversized_lut() {
        let Some(arm) = simd_arm() else { return };
        // threshold -9 needs a 10-entry LUT: no register-resident arm.
        let lut: Vec<f32> = (0..=9).map(|i| (-(i as f32)).exp()).collect();
        let mut out = vec![0.0f32; 4];
        assert!(!sas_exp_row_on(
            arm,
            &[0.0, -1.0, -2.0, -8.5],
            0.0,
            -9.0,
            &lut,
            [0.9996, -0.9922, 0.4626, -0.1025],
            &mut out
        ));
    }

    #[test]
    fn quantize_row_bit_identical_at_ragged_lengths() {
        let Some(arm) = simd_arm() else { return };
        for len in 0..=(4 * 32 + 3) {
            let x: Vec<f32> = (0..len)
                .map(|j| match j % 11 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::NAN,
                    3 => f32::INFINITY,
                    4 => f32::NEG_INFINITY,
                    5 => 0.5,   // exact midpoint: half-away rounds to 1
                    6 => -0.5,  // exact midpoint: half-away rounds to -1
                    7 => f32::from_bits(0.5f32.to_bits() - 1), // largest f32 < 0.5
                    8 => 1e30,
                    _ => (j as f32 - 40.0) * 0.73,
                })
                .collect();
            for scale in [1.0f32, 0.01724, 2.5e-6] {
                let mut simd = vec![0i8; len];
                assert!(quantize_i8_row_on(arm, &x, scale, &mut simd));
                for (j, &v) in x.iter().enumerate() {
                    assert_eq!(
                        simd[j],
                        quantize_i8_scalar(v, scale),
                        "len {len} j {j} v {v} scale {scale}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_midpoints_round_half_away() {
        // The scalar contract itself: every exact .5 midpoint in code
        // range rounds away from zero (the hardware default would round
        // half to even — 2.5 → 2 — which the vector arm must not do).
        let Some(arm) = simd_arm() else { return };
        let x: Vec<f32> = (0..64).map(|j| (j as f32 - 32.0) + 0.5).collect();
        let mut simd = vec![0i8; x.len()];
        assert!(quantize_i8_row_on(arm, &x, 1.0, &mut simd));
        for (j, &v) in x.iter().enumerate() {
            assert_eq!(simd[j], quantize_i8_scalar(v, 1.0), "midpoint {v}");
            let away = if v > 0.0 { v.ceil() } else { v.floor() };
            assert_eq!(simd[j] as f32, away, "midpoint {v} must round away");
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn requesting_neon_on_x86_panics() {
        let r = std::panic::catch_unwind(|| dot_i8_on(SimdLevel::Neon, &[1], &[2]));
        assert!(r.is_err());
    }
}

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

use crate::packed::{PackedB, PANEL, QUAD, QUAD_BYTES};

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
    /// dot via `pmaddwd`, the packed-operand integer GEMM (on `vpdpbusd`
    /// when the CPU also has AVX-VNNI), plus vectorized SAS
    /// exponentiation and symmetric INT8 encode.
    Avx2,
    /// 128-bit NEON kernels (aarch64): widening `vmull_s8` +
    /// `vpadalq_s16` integer dot, the packed-operand integer GEMM on
    /// `SDOT` (where the CPU has the dot-product extension),
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

/// Channels one AVX2 step of [`requantize_rows_on`] covers (16-bit
/// lanes): narrower rows run its scalar formula throughout.
pub const REQUANT_LANES: usize = 16;

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
/// result into `out` (resized and overwritten; no reallocation once
/// `out` has capacity). `a` is `m × k`, `b` is `n × k`, both row-major.
///
/// A pack-then-multiply wrapper: `b` is packed into a fresh [`PackedB`]
/// on every call and multiplied by [`matmul_i8_packed_on`]. Callers that
/// reuse an operand pack it once and call that directly.
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
    matmul_i8_packed_on(level, a, m, &PackedB::from_rows(b, n, k), out);
}

/// `C = A · Bᵀ` against a packed operand on an explicit arm: `a` is
/// `m × b.k()` row-major and the `m × b.n()` result goes to `out`
/// (resized and overwritten; no reallocation once `out` has capacity).
///
/// Each arm broadcasts four bytes of an `A` row against one quad of a
/// [`PackedB`] panel, so every `i32` lane accumulates its own output and
/// no output needs a horizontal reduction. Rows run in blocks of four
/// against two panels (AVX-VNNI) or one (the others); a lone row, and
/// the last `m % 4`, run against up to eight panels at once, so even a
/// one-row call keeps eight independent accumulators. The arms:
///
/// * **scalar** — the portable reference;
/// * **AVX2** — the stored bytes zero-extended to `i16` and multiplied
///   by `pmaddwd`; each output's two partial sums meet once, after its
///   last quad;
/// * **AVX-VNNI** (detected once per process) — `vpdpbusd` multiplies
///   the stored `b + 128` bytes directly and subtracts `128 · Σa` once
///   per output;
/// * **NEON `SDOT`** (when the CPU has the dot-product extension,
///   otherwise the scalar arm) — undoes the bias on load.
///
/// Every arm matches the scalar one bit for bit for every
/// `k ≤ `[`DOT_I8_MAX_LEN`](crate::matmul::DOT_I8_MAX_LEN): the products
/// are exact and wrapping `i32` sums are exact modulo 2³².
///
/// # Panics
///
/// Panics if `a.len() != m · b.k()` or `level` is not available on this
/// machine.
pub fn matmul_i8_packed_on(level: SimdLevel, a: &[i8], m: usize, b: &PackedB, out: &mut Vec<i32>) {
    assert_eq!(a.len(), m * b.k(), "a length mismatch");
    // The arms read `b` through raw pointers; `PackedB` keeps this true.
    assert!(b.holds_layout(), "packed operand shorter than its shape");
    out.resize(m * b.n(), 0);
    match level {
        // SAFETY: the scalar arm only needs the shapes checked above.
        SimdLevel::Scalar => unsafe { gemm_packed::<ScalarArm, 4, 1, 1>(a, m, b, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            assert!(level.available(), "AVX2 not available on this machine");
            // SAFETY: AVX2 verified at runtime above, AVX-VNNI by
            // `has_avx_vnni`; `out` was just sized to m × n.
            unsafe {
                if x86::has_avx_vnni() {
                    x86::matmul_packed_vnni(a, m, b, out)
                } else {
                    x86::matmul_packed_avx2(a, m, b, out)
                }
            }
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            assert!(level.available(), "NEON not available on this machine");
            // SAFETY: NEON verified at runtime above, the dot-product
            // extension by `has_dotprod`; `out` was just sized to m × n.
            unsafe {
                if arm::has_dotprod() {
                    arm::matmul_packed_sdot(a, m, b, out)
                } else {
                    gemm_packed::<ScalarArm, 4, 1, 1>(a, m, b, out)
                }
            }
        }
        #[allow(unreachable_patterns)]
        other => panic!("SIMD level {other:?} is not supported on this target"),
    }
}

/// How one arm of the packed GEMM multiplies. The driver
/// ([`gemm_packed`]) walks rows, panels and quads; the arm supplies the
/// registers.
///
/// The methods are `#[inline(always)]` without `#[target_feature]`: they
/// compile into the `#[target_feature]` entry point of their arm, which
/// enables the instructions they use. They are written with plain loops,
/// not closures over arrays: an out-of-line closure would call the
/// intrinsics without the entry point's features.
trait PackedArm {
    /// Four bytes of one `A` row, broadcast.
    type A: Copy;
    /// One quad of one panel: eight columns of four stored bytes.
    type B: Copy;
    /// The eight running outputs of one row against one panel.
    type Acc: Copy;

    /// Whether the arm multiplies the stored `b + 128` bytes as they
    /// are, so every output carries `128 · Σa` over its `A` row, which
    /// the driver passes to [`store`](PackedArm::store).
    const BIASED: bool;

    /// Eight zero outputs.
    ///
    /// # Safety
    ///
    /// The CPU must support the arm's instructions.
    unsafe fn zero() -> Self::Acc;

    /// Loads the 32 bytes of one quad of one panel.
    ///
    /// # Safety
    ///
    /// `p` must be valid for a 32-byte read, and the CPU must support
    /// the arm's instructions.
    unsafe fn load_b(p: *const u8) -> Self::B;

    /// Broadcasts four `A` bytes, little-endian in `quad`.
    ///
    /// # Safety
    ///
    /// The CPU must support the arm's instructions.
    unsafe fn bcast_a(quad: i32) -> Self::A;

    /// Adds the products of one quad into the eight outputs.
    ///
    /// # Safety
    ///
    /// The CPU must support the arm's instructions.
    unsafe fn mac(acc: Self::Acc, b: Self::B, a: Self::A) -> Self::Acc;

    /// Writes the eight outputs, less `offset` each, to `dst`.
    ///
    /// # Safety
    ///
    /// `dst` must be valid for eight `i32` writes, and the CPU must
    /// support the arm's instructions.
    unsafe fn store(acc: Self::Acc, offset: i32, dst: *mut i32);
}

/// The packed GEMM on arm `G`: rows in blocks of `MR` against `NV`
/// panels at a time, then the last `m % MR` rows one at a time against
/// `NV1` panels at a time.
///
/// # Safety
///
/// `a` must be `m × b.k()`, `out` `m × b.n()`, and the CPU must support
/// the arm's instructions.
#[inline(always)]
unsafe fn gemm_packed<G: PackedArm, const MR: usize, const NV: usize, const NV1: usize>(
    a: &[i8],
    m: usize,
    b: &PackedB,
    out: &mut [i32],
) {
    debug_assert!(a.len() == m * b.k() && out.len() == m * b.n());
    let mut i = 0;
    // SAFETY: forwarded from the caller; every block stays in rows
    // `i..i + MR ≤ m`.
    unsafe {
        while i + MR <= m {
            packed_rows::<G, MR, NV>(a, b, i, out);
            i += MR;
        }
        while i < m {
            packed_rows::<G, 1, NV1>(a, b, i, out);
            i += 1;
        }
    }
}

/// Output rows `i0..i0 + MR` of [`gemm_packed`], `NV` panels per block
/// and the last `panels % NV` one at a time.
///
/// Each `A` row's last `k % 4` bytes are copied into a zero-padded quad,
/// so the last quad reads nothing past its row, and its padding bytes,
/// which meet the stored padding of `b`, add nothing.
///
/// # Safety
///
/// As [`gemm_packed`], with `i0 + MR ≤ m`.
#[inline(always)]
unsafe fn packed_rows<G: PackedArm, const MR: usize, const NV: usize>(
    a: &[i8],
    b: &PackedB,
    i0: usize,
    out: &mut [i32],
) {
    let k = b.k();
    let full = k / QUAD;
    let mut rows = PackedRows {
        i0,
        row: [std::ptr::null(); MR],
        tail: [0; MR],
        offset: [0; MR],
        full,
        has_tail: !k.is_multiple_of(QUAD),
    };
    for r in 0..MR {
        let row = &a[(i0 + r) * k..(i0 + r + 1) * k];
        rows.row[r] = row.as_ptr();
        // Shifted in byte by byte: a copy into a buffer compiles to a
        // `memcpy` call, which costs more than a short row's whole GEMM.
        for (t, &x) in row[full * QUAD..].iter().enumerate() {
            rows.tail[r] |= i32::from(x as u8) << (8 * t);
        }
        if G::BIASED {
            let sum = row.iter().fold(0i32, |s, &x| s.wrapping_add(i32::from(x)));
            rows.offset[r] = sum.wrapping_mul(128);
        }
    }
    let panels = b.panels();
    let mut p = 0;
    // SAFETY: forwarded from the caller; each block covers panels
    // `p..p + NV ≤ panels`.
    unsafe {
        while p + NV <= panels {
            packed_block::<G, MR, NV>(&rows, b, p, out);
            p += NV;
        }
        while p < panels {
            packed_block::<G, MR, 1>(&rows, b, p, out);
            p += 1;
        }
    }
}

/// The `A` side of one block of `MR` output rows.
struct PackedRows<const MR: usize> {
    /// First output row.
    i0: usize,
    /// Start of each `A` row.
    row: [*const i8; MR],
    /// Each row's last `k % 4` bytes, zero-padded to one quad.
    tail: [i32; MR],
    /// Each row's `128 · Σa`, for a [`PackedArm::BIASED`] arm.
    offset: [i32; MR],
    /// Whole quads per row.
    full: usize,
    /// Whether a partial quad follows them.
    has_tail: bool,
}

/// The outputs of rows `rows.i0..` against panels `p0..p0 + NV`.
///
/// # Safety
///
/// As [`packed_rows`], with `p0 + NV ≤ b.panels()`.
#[inline(always)]
unsafe fn packed_block<G: PackedArm, const MR: usize, const NV: usize>(
    rows: &PackedRows<MR>,
    b: &PackedB,
    p0: usize,
    out: &mut [i32],
) {
    let n = b.n();
    // SAFETY: quad `q ≤ ⌈k/4⌉ − 1 < stride` of panel `p < panels` lies
    // inside `b`'s data; whole quads of `A` lie inside their row; output
    // `(i0 + r) · n + 8 · (p0 + v)` starts inside `out`, and a store
    // that would run past the row's `n` outputs goes through a buffer.
    unsafe {
        let mut panel = [b.data().as_ptr(); NV];
        for (v, pp) in panel.iter_mut().enumerate() {
            *pp = pp.add(b.panel_start(p0 + v));
        }
        let mut acc = [[G::zero(); NV]; MR];
        let mut va = [G::bcast_a(0); MR];
        for q in 0..rows.full {
            for (a, &row) in va.iter_mut().zip(&rows.row) {
                *a = G::bcast_a((row.add(QUAD * q) as *const i32).read_unaligned());
            }
            for (v, &pp) in panel.iter().enumerate() {
                let vb = G::load_b(pp.add(QUAD_BYTES * q));
                for (acc_row, &a) in acc.iter_mut().zip(&va) {
                    acc_row[v] = G::mac(acc_row[v], vb, a);
                }
            }
        }
        if rows.has_tail {
            for (a, &tail) in va.iter_mut().zip(&rows.tail) {
                *a = G::bcast_a(tail);
            }
            for (v, &pp) in panel.iter().enumerate() {
                let vb = G::load_b(pp.add(QUAD_BYTES * rows.full));
                for (acc_row, &a) in acc.iter_mut().zip(&va) {
                    acc_row[v] = G::mac(acc_row[v], vb, a);
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let row_out = out.as_mut_ptr().add((rows.i0 + r) * n);
            for (v, &x) in acc_row.iter().enumerate() {
                let col = PANEL * (p0 + v);
                if col + PANEL <= n {
                    G::store(x, rows.offset[r], row_out.add(col));
                } else {
                    let mut last = [0i32; PANEL];
                    G::store(x, rows.offset[r], last.as_mut_ptr());
                    std::ptr::copy_nonoverlapping(last.as_ptr(), row_out.add(col), n - col);
                }
            }
        }
    }
}

/// The portable arm: the stored bias undone on load, exact products
/// summed per lane.
struct ScalarArm;

impl PackedArm for ScalarArm {
    type A = [i32; QUAD];
    type B = [i32; QUAD_BYTES];
    type Acc = [i32; PANEL];
    const BIASED: bool = false;

    #[inline(always)]
    unsafe fn zero() -> Self::Acc {
        [0; PANEL]
    }

    #[inline(always)]
    unsafe fn load_b(p: *const u8) -> Self::B {
        let mut b = [0; QUAD_BYTES];
        for (i, x) in b.iter_mut().enumerate() {
            // SAFETY: the caller guarantees 32 readable bytes at `p`.
            *x = i32::from((unsafe { *p.add(i) } ^ 0x80) as i8);
        }
        b
    }

    #[inline(always)]
    unsafe fn bcast_a(quad: i32) -> Self::A {
        quad.to_le_bytes().map(|x| i32::from(x as i8))
    }

    #[inline(always)]
    unsafe fn mac(mut acc: Self::Acc, b: Self::B, a: Self::A) -> Self::Acc {
        for (x, col) in acc.iter_mut().zip(b.chunks_exact(QUAD)) {
            for (&bv, &av) in col.iter().zip(&a) {
                *x = x.wrapping_add(av * bv);
            }
        }
        acc
    }

    #[inline(always)]
    unsafe fn store(acc: Self::Acc, offset: i32, dst: *mut i32) {
        for (c, x) in acc.into_iter().enumerate() {
            // SAFETY: the caller guarantees eight writable outputs.
            unsafe { *dst.add(c) = x.wrapping_sub(offset) };
        }
    }
}

/// Vector part of [`PackedB::write_panel`](crate::PackedB::write_panel)
/// on an explicit arm: writes quad rows `0..done` of one whole panel —
/// row `q` of `dst` (32 bytes) gets the four bytes `4q..4q + 4` of each of
/// the eight columns, biased by `0x80` — and returns `done`, a multiple of
/// eight at most `quads`. The caller writes the rest. Returns 0 on an arm
/// without this kernel.
///
/// # Panics
///
/// Panics if a column is shorter than `4 · quads` bytes, `dst` shorter
/// than `32 · quads`, or `level` is not available on this machine.
pub(crate) fn pack_panel_on(
    level: SimdLevel,
    cols: &[&[i8]; PANEL],
    quads: usize,
    dst: &mut [u8],
) -> usize {
    assert!(
        cols.iter().all(|c| c.len() >= QUAD * quads),
        "column too short"
    );
    assert!(dst.len() >= QUAD_BYTES * quads, "panel too short");
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            assert!(level.available(), "AVX2 not available on this machine");
            // SAFETY: AVX2 verified above; the lengths were checked.
            unsafe { x86::pack_panel_avx2(cols, quads, dst) }
        }
        _ => 0,
    }
}

/// Vector part of
/// [`PackedB::write_reduction_quad`](crate::PackedB::write_reduction_quad)
/// on an explicit arm: for columns `j < done`, writes the interleaved
/// `[rows[0][j], rows[1][j], rows[2][j], rows[3][j]]`, biased by `0x80`,
/// at `dst[(j / 8) · panel_bytes + at + 4 · (j % 8)..]`, and returns
/// `done`, a multiple of 32 at most the rows' length. The caller writes
/// the rest. Returns 0 on an arm without this kernel.
///
/// # Panics
///
/// Panics if the rows differ in length, `at + 32 > panel_bytes`, `dst`
/// does not hold a panel for every column, or `level` is not available
/// on this machine.
pub(crate) fn pack_quad_on(
    level: SimdLevel,
    rows: &[&[i8]; QUAD],
    dst: &mut [u8],
    at: usize,
    panel_bytes: usize,
) -> usize {
    let n = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == n), "row length mismatch");
    assert!(at + QUAD_BYTES <= panel_bytes, "quad outside its panel");
    assert!(
        dst.len() >= n.div_ceil(PANEL) * panel_bytes,
        "too few panels"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            assert!(level.available(), "AVX2 not available on this machine");
            // SAFETY: AVX2 verified above; the lengths were checked.
            unsafe { x86::pack_quad_avx2(rows, dst, at, panel_bytes) }
        }
        _ => 0,
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

/// Per-channel constants of [`requantize_rows_on`]. Channel `c` divides
/// by one fixed divisor `s` with the reciprocal multiply-shift
/// `⌊(|a| + half) · recip / 2¹⁶⌋` (plus `|a| + half` itself where `pass`
/// is all ones, the `s = 1` case), subtracts its zero point, and
/// re-expands with its scale. Stored as five 16-bit rows of `d` lanes, the
/// order the AVX2 arm loads them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequantLanes {
    d: usize,
    /// `half`, `recip`, `pass`, `zero` and `scale`, `d` lanes each.
    data: Vec<u16>,
}

impl RequantLanes {
    /// Lanes for `d` channels, all zero.
    pub fn new(d: usize) -> Self {
        Self {
            d,
            data: vec![0; 5 * d],
        }
    }

    /// Channels.
    pub(crate) fn channels(&self) -> usize {
        self.d
    }

    /// Sets channel `c`: rounding offset `half = ⌊s / 2⌋`, reciprocal
    /// `recip = ⌈2¹⁶ / s⌉`, `pass` all ones to pass `|a| + half` through
    /// (`s = 1`, `recip = 0`) or 0, and the zero point and scale.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ d`.
    pub fn set(&mut self, c: usize, half: u16, recip: u16, pass: u16, zero: i16, scale: i16) {
        assert!(c < self.d, "channel {c} out of range");
        let lane = self.data[c..].iter_mut().step_by(self.d);
        for (x, v) in lane.zip([half, recip, pass, zero as u16, scale as u16]) {
            *x = v;
        }
    }

    /// Channel `c`'s five constants, in the order [`RequantLanes::set`]
    /// takes them (zero point and scale as their 16-bit patterns).
    #[cfg(test)]
    fn lane(&self, c: usize) -> [u16; 5] {
        std::array::from_fn(|i| self.data[i * self.d + c])
    }

    /// Row `i` of the five, `d` lanes.
    #[inline]
    fn row(&self, i: usize) -> &[u16] {
        &self.data[i * self.d..(i + 1) * self.d]
    }

    /// Channels `from..` as `RequantLanes::lane` gives them.
    #[inline]
    fn lanes_from(&self, from: usize) -> impl Iterator<Item = [u16; 5]> + '_ {
        let row = |i: usize| self.row(i)[from..].iter();
        row(0)
            .zip(row(1))
            .zip(row(2))
            .zip(row(3))
            .zip(row(4))
            .map(|((((&h, &r), &p), &z), &s)| [h, r, p, z, s])
    }
}

/// One element of [`requantize_rows_on`], the scalar reference: code `a`
/// of a channel with lanes `[half, recip, pass, zero, scale]` becomes
/// `(q, e)` with `n = |a| + half`,
/// `r = ±(⌊n · recip / 2¹⁶⌋ + (n & pass))` (the sign of `a`),
/// `q = clamp(r − zero, 0, max_code)` and
/// `e = clamp((q + zero) · scale, −127, 127)`. All arithmetic wraps in 16
/// bits, so the result is defined for every input.
#[inline]
fn requantize_scalar(a: i8, lane: [u16; 5], max_code: i16) -> (u8, i8) {
    let [half, recip, pass, zero, scale] = lane;
    let (zero, scale) = (zero as i16, scale as i16);
    let n = u16::from(a.unsigned_abs()).wrapping_add(half);
    let hi = ((u32::from(n) * u32::from(recip)) >> 16) as u16;
    let q = hi.wrapping_add(n & pass) as i16;
    // Negate where `a < 0` without a branch: `m` is all ones there.
    let m = i16::from(a) >> 15;
    let r = (q ^ m).wrapping_sub(m);
    let q2 = r.wrapping_sub(zero).clamp(0, max_code);
    let e = q2.wrapping_add(zero).wrapping_mul(scale).clamp(-127, 127);
    (q2 as u8, e as i8)
}

/// Where [`requantize_rows_on`] puts its codes: `per` consecutive rows
/// share one row of bytes, and row `r`'s code sits at bit
/// `(r % per) · bits` of byte row `r / per` — the sub-byte packing of
/// each channel's run, laid out lane by lane. Codes are clamped to
/// `0..2^bits`; `per = 1` writes one byte per code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodeLayout {
    /// Code width in bits, `1..=8`.
    pub bits: u32,
    /// Rows per byte row, with `per · bits ≤ 8`.
    pub per: usize,
}

impl CodeLayout {
    /// The largest code, `2^bits − 1`.
    fn max_code(self) -> i16 {
        (1i16 << self.bits) - 1
    }

    /// Byte row and bit shift of each row from `first` on, without a
    /// division per row.
    #[inline]
    fn places(self, first: usize) -> impl Iterator<Item = (usize, u32)> {
        let (mut at, mut k) = (first / self.per, first % self.per);
        std::iter::from_fn(move || {
            let place = (at, k as u32 * self.bits);
            k += 1;
            if k == self.per {
                (at, k) = (at + 1, 0);
            }
            Some(place)
        })
    }
}

/// Lane-parallel integer requantization of row-major INT8 rows, one set
/// of constants per channel (column). Source row `i` is row
/// `r = first_row + i` of its block. Each of its codes `a` in channel `c`
/// becomes `q = clamp(±(⌊n · recip / 2¹⁶⌋ + (n & pass)) − zero, 0, 2^bits − 1)`
/// with `n = |a| + half` and the sign of `a`, and its expansion
/// `e = clamp((q + zero) · scale, −127, 127)`, all in wrapping 16-bit
/// arithmetic, with channel `c`'s [`RequantLanes`]. `q` is OR-ed into
/// `codes` where `layout` places row `r` (so `codes` starts zeroed), and
/// `e` goes to row `i` of `expanded` when given. This is the rounding
/// pass of the BPQ stage-2 compress on one token group:
/// `q² = round(q¹ / s) − z` and its expansion `(q² + z) · s`.
///
/// The AVX2 arm evaluates sixteen channels per step in 16-bit lanes
/// (`vpmulhuw` for the reciprocal, `vpsignw` for the sign fix-up, min/max
/// for both clamps) and finishes a row's last `d % 16` channels with the
/// scalar formula, so it is bit-identical to the scalar arm for every
/// input; every other level runs the scalar arm.
///
/// # Panics
///
/// Panics if `src` is not a whole number of `d`-channel rows, `codes` is
/// too short for the last row's byte row, `expanded` is not as long as
/// `src`, `layout` is invalid, or `level` is not available on this
/// machine.
pub fn requantize_rows_on(
    level: SimdLevel,
    src: &[i8],
    first_row: usize,
    lanes: &RequantLanes,
    layout: CodeLayout,
    codes: &mut [u8],
    mut expanded: Option<&mut [i8]>,
) {
    let d = lanes.channels();
    assert!(
        (1..=8).contains(&layout.bits) && layout.per >= 1 && layout.per as u32 * layout.bits <= 8,
        "invalid code layout {layout:?}"
    );
    if src.is_empty() {
        return;
    }
    assert!(
        d > 0 && src.len().is_multiple_of(d),
        "source is not whole rows"
    );
    let last = (first_row + src.len() / d - 1) / layout.per;
    assert!(codes.len() >= (last + 1) * d, "code output too short");
    if let Some(e) = &expanded {
        assert_eq!(e.len(), src.len(), "expanded output length mismatch");
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if d >= REQUANT_LANES => {
            assert!(level.available(), "AVX2 not available on this machine");
            // SAFETY: AVX2 verified above; the lengths were checked.
            unsafe { x86::requantize_rows_avx2(src, first_row, lanes, layout, codes, expanded) }
        }
        _ => {
            assert!(level.available(), "SIMD level {level:?} not available");
            let rows = src.chunks_exact(d).zip(layout.places(first_row));
            for (i, (row, place)) in rows.enumerate() {
                let exp = expanded.as_deref_mut().map(|e| &mut e[i * d..(i + 1) * d]);
                requantize_row_scalar(row, place, 0, lanes, layout, codes, exp);
            }
        }
    }
}

/// The scalar arm of [`requantize_rows_on`] on channels `from..` of one
/// row, whose codes go to byte row `at` at bit `shift`, with `expanded`
/// that row's `d` outputs.
fn requantize_row_scalar(
    row: &[i8],
    (at, shift): (usize, u32),
    from: usize,
    lanes: &RequantLanes,
    layout: CodeLayout,
    codes: &mut [u8],
    expanded: Option<&mut [i8]>,
) {
    let d = lanes.channels();
    let max_code = layout.max_code();
    let out = codes[at * d + from..(at + 1) * d].iter_mut();
    let elems = row[from..].iter().zip(out).zip(lanes.lanes_from(from));
    match expanded {
        Some(exp) => {
            for (((&a, o), lane), x) in elems.zip(&mut exp[from..]) {
                let (q, e) = requantize_scalar(a, lane, max_code);
                *o |= q << shift;
                *x = e;
            }
        }
        None => {
            for ((&a, o), lane) in elems {
                *o |= requantize_scalar(a, lane, max_code).0 << shift;
            }
        }
    }
}

/// Per-column minimum and maximum of the row-major `src` (`d` columns)
/// on an explicit arm, into `lo` and `hi` — the stage-2 range of every
/// channel of one token group. The AVX2 arm folds 32 columns per step;
/// the result is the same on every arm. Columns of an empty `src` come
/// out as `(127, −128)`.
///
/// # Panics
///
/// Panics if `lo` or `hi` is not `d` long, `src` is not whole rows, or
/// `level` is not available on this machine.
pub fn col_min_max_i8_on(level: SimdLevel, src: &[i8], d: usize, lo: &mut [i8], hi: &mut [i8]) {
    assert_eq!(lo.len(), d, "min output length mismatch");
    assert_eq!(hi.len(), d, "max output length mismatch");
    assert!(
        src.is_empty() || d > 0 && src.len().is_multiple_of(d),
        "source is not whole rows"
    );
    lo.fill(i8::MAX);
    hi.fill(i8::MIN);
    if src.is_empty() {
        return;
    }
    let done = match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            assert!(level.available(), "AVX2 not available on this machine");
            // SAFETY: AVX2 verified above; the lengths were checked.
            unsafe { x86::col_min_max_avx2(src, d, lo, hi) }
        }
        _ => {
            assert!(level.available(), "SIMD level {level:?} not available");
            0
        }
    };
    for row in src.chunks_exact(d) {
        let cols = lo[done..].iter_mut().zip(&mut hi[done..]).zip(&row[done..]);
        for ((l, h), &v) in cols {
            *l = (*l).min(v);
            *h = (*h).max(v);
        }
    }
}

/// Transposes the `rows × cols` row-major byte matrix `src` into `dst`
/// (`cols × rows`, row-major) on an explicit arm: [`crate::transpose_into`]
/// on the scalar arm; on AVX2, sixteen rows by thirty-two columns at a
/// time as two in-register 16 × 16 byte transposes (four rounds of
/// unpacks), with the ragged edges done by the scalar loop.
///
/// # Panics
///
/// Panics if `src` or `dst` is not `rows · cols` long, or `level` is not
/// available on this machine.
pub fn transpose_u8_on(level: SimdLevel, src: &[u8], rows: usize, cols: usize, dst: &mut [u8]) {
    assert_eq!(src.len(), rows * cols, "transpose source length mismatch");
    assert_eq!(
        dst.len(),
        rows * cols,
        "transpose destination length mismatch"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if rows >= 16 && cols >= 32 => {
            assert!(level.available(), "AVX2 not available on this machine");
            // SAFETY: AVX2 verified above; the lengths were checked.
            let (r, c) = unsafe { x86::transpose_u8_avx2(src, rows, cols, dst) };
            transpose_rest(src, rows, cols, r, c, dst);
        }
        _ => {
            assert!(level.available(), "SIMD level {level:?} not available");
            crate::transpose_into(src, rows, cols, dst);
        }
    }
}

/// The scalar edges of a blocked transpose that covered rows `..r` of
/// columns `..c`: every element outside that block.
fn transpose_rest(src: &[u8], rows: usize, cols: usize, r: usize, c: usize, dst: &mut [u8]) {
    for (i, row) in src.chunks_exact(cols).enumerate() {
        let from = if i < r { c } else { 0 };
        for (j, &x) in row.iter().enumerate().skip(from) {
            dst[j * rows + i] = x;
        }
    }
}

/// Shortest input [`crc32_fold_on`] folds: one 64-byte block seeds its
/// four lanes.
pub const CRC32_FOLD_MIN_LEN: usize = 64;

/// Advances a raw (pre-inverted) reflected IEEE CRC32 state (polynomial
/// `0xEDB88320`) over the longest 16-byte-multiple prefix of `data` on an
/// explicit arm, returning the new state and the bytes it consumed; the
/// caller finishes the tail. On AVX2 with PCLMULQDQ (detected once, like
/// AVX-VNNI) it folds four 128-bit lanes by carry-less multiplication,
/// then reduces 128 → 64 → 32 bits with a Barrett step (Intel, "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"). The
/// scalar twin is the table-driven CRC in `turbo-robust`: every other
/// arm, and inputs shorter than [`CRC32_FOLD_MIN_LEN`], consume nothing
/// and return `(crc, 0)`. The state after the consumed prefix is the same
/// on every arm.
///
/// # Panics
///
/// Panics if `level` is not available on this machine.
pub fn crc32_fold_on(level: SimdLevel, crc: u32, data: &[u8]) -> (u32, usize) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if data.len() >= CRC32_FOLD_MIN_LEN && x86::has_pclmulqdq() => {
            assert!(level.available(), "AVX2 not available on this machine");
            let body = data.len() & !15;
            // SAFETY: AVX2 and PCLMULQDQ verified above; `body` is a
            // multiple of 16 and at least 64, within `data`.
            (unsafe { x86::crc32_fold_clmul(crc, &data[..body]) }, body)
        }
        _ => {
            assert!(level.available(), "SIMD level {level:?} not available");
            (crc, 0)
        }
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

    /// Whether the CPU has PCLMULQDQ (carry-less multiply), detected once
    /// per process and cached like [`has_avx_vnni`].
    pub(super) fn has_pclmulqdq() -> bool {
        static CLMUL: OnceLock<bool> = OnceLock::new();
        *CLMUL.get_or_init(|| is_x86_feature_detected!("pclmulqdq"))
    }

    /// Multiplies the low and the high 64 bits of `x` by the low and the
    /// high fold constant of `k`, and folds the sum into `next`: `x`
    /// carried 128 bits (or 512, with the four-lane constants) further
    /// along the message.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn clmul_fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The PCLMULQDQ arm of [`super::crc32_fold_on`]: `crc` is the raw
    /// reflected state before `data`, and the raw state after it comes
    /// back. Constants are `x^n mod P` for the reflected IEEE polynomial
    /// (shifted one bit, as the reflected domain needs): k1/k2 fold over
    /// 512 bits, k3/k4 over 128, k5 from 96 to 64; `P'` and `μ` drive the
    /// Barrett reduction.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2 and PCLMULQDQ, and `data.len()` must be a
    /// multiple of 16 and at least 64.
    #[target_feature(enable = "avx2,pclmulqdq")]
    pub(super) unsafe fn crc32_fold_clmul(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x01_63cd_6124);
        let poly_mu = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641);
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        let n = data.len();
        let p = data.as_ptr();
        // SAFETY: every load reads 16 bytes at an offset `i` with
        // `i + 16 <= n` (the loop conditions and the length contract).
        unsafe {
            let load = |i: usize| _mm_loadu_si128(p.add(i) as *const __m128i);
            let mut x0 = _mm_xor_si128(load(0), _mm_cvtsi32_si128(crc as i32));
            let mut x1 = load(16);
            let mut x2 = load(32);
            let mut x3 = load(48);
            let mut i = 64;
            while i + 64 <= n {
                x0 = clmul_fold(x0, k1k2, load(i));
                x1 = clmul_fold(x1, k1k2, load(i + 16));
                x2 = clmul_fold(x2, k1k2, load(i + 32));
                x3 = clmul_fold(x3, k1k2, load(i + 48));
                i += 64;
            }
            let mut x = clmul_fold(x0, k3k4, x1);
            x = clmul_fold(x, k3k4, x2);
            x = clmul_fold(x, k3k4, x3);
            while i < n {
                x = clmul_fold(x, k3k4, load(i));
                i += 16;
            }
            // 128 → 64 bits: the low half times k4 into the high half,
            // then the low 32 bits of that times k5 into the rest.
            x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k3k4));
            let rest = _mm_srli_si128::<4>(x);
            x = _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5), rest);
            // Barrett reduction to 32 bits.
            let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
            t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly_mu);
            _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
        }
    }

    /// The AVX2 arm of the packed GEMM: each half-quad (four columns of
    /// four bytes) is zero-extended to `i16`, the stored `b + 128` as it
    /// is, and multiplied by the `A` bytes sign-extended to `i16` with
    /// `pmaddwd`. A pair sums to at most `2 · 255 · 128`, exact in `i32`.
    /// Each column keeps two partial sums, one per byte pair; they meet
    /// once, in [`store`](super::PackedArm::store).
    struct Madd;

    impl super::PackedArm for Madd {
        type A = __m256i;
        type B = (__m256i, __m256i);
        type Acc = (__m256i, __m256i);
        const BIASED: bool = true;

        #[inline(always)]
        unsafe fn zero() -> Self::Acc {
            // SAFETY: the caller guarantees AVX2.
            unsafe { (_mm256_setzero_si256(), _mm256_setzero_si256()) }
        }

        #[inline(always)]
        unsafe fn load_b(p: *const u8) -> Self::B {
            // SAFETY: the caller guarantees 32 readable bytes and AVX2.
            unsafe {
                (
                    _mm256_cvtepu8_epi16(_mm_loadu_si128(p as *const __m128i)),
                    _mm256_cvtepu8_epi16(_mm_loadu_si128(p.add(16) as *const __m128i)),
                )
            }
        }

        #[inline(always)]
        unsafe fn bcast_a(quad: i32) -> Self::A {
            // SAFETY: the caller guarantees AVX2.
            unsafe { _mm256_cvtepi8_epi16(_mm_set1_epi32(quad)) }
        }

        #[inline(always)]
        unsafe fn mac(acc: Self::Acc, b: Self::B, a: Self::A) -> Self::Acc {
            // SAFETY: the caller guarantees AVX2.
            unsafe {
                (
                    _mm256_add_epi32(acc.0, _mm256_madd_epi16(b.0, a)),
                    _mm256_add_epi32(acc.1, _mm256_madd_epi16(b.1, a)),
                )
            }
        }

        #[inline(always)]
        unsafe fn store(acc: Self::Acc, offset: i32, dst: *mut i32) {
            // SAFETY: the caller guarantees eight writable outputs and
            // AVX2.
            unsafe {
                // Per 128-bit lane: [c0, c1, c4, c5 | c2, c3, c6, c7].
                let h = _mm256_hadd_epi32(acc.0, acc.1);
                let v = _mm256_permute4x64_epi64::<0b11_01_10_00>(h);
                let v = _mm256_sub_epi32(v, _mm256_set1_epi32(offset));
                _mm256_storeu_si256(dst as *mut __m256i, v);
            }
        }
    }

    /// The AVX-VNNI arm of the packed GEMM: `vpdpbusd` multiplies the
    /// stored `b + 128` bytes (unsigned) by the broadcast `A` bytes
    /// (signed) and adds four products into each output's lane, so every
    /// output gains `128 · Σa` over its row, subtracted once in
    /// [`store`](super::PackedArm::store). The sums wrap modulo 2³², so
    /// the corrected result is exact whenever the true sum fits in
    /// `i32`, which [`DOT_I8_MAX_LEN`](crate::matmul::DOT_I8_MAX_LEN)
    /// guarantees.
    struct Vnni;

    impl super::PackedArm for Vnni {
        type A = __m256i;
        type B = __m256i;
        type Acc = __m256i;
        const BIASED: bool = true;

        #[inline(always)]
        unsafe fn zero() -> Self::Acc {
            // SAFETY: the caller guarantees AVX2.
            unsafe { _mm256_setzero_si256() }
        }

        #[inline(always)]
        unsafe fn load_b(p: *const u8) -> Self::B {
            // SAFETY: the caller guarantees 32 readable bytes and AVX2.
            unsafe { _mm256_loadu_si256(p as *const __m256i) }
        }

        #[inline(always)]
        unsafe fn bcast_a(quad: i32) -> Self::A {
            // SAFETY: the caller guarantees AVX2.
            unsafe { _mm256_set1_epi32(quad) }
        }

        #[inline(always)]
        unsafe fn mac(acc: Self::Acc, b: Self::B, a: Self::A) -> Self::Acc {
            // SAFETY: the caller guarantees AVX2 and AVX-VNNI.
            unsafe { _mm256_dpbusd_avx_epi32(acc, b, a) }
        }

        #[inline(always)]
        unsafe fn store(acc: Self::Acc, offset: i32, dst: *mut i32) {
            // SAFETY: the caller guarantees eight writable outputs and
            // AVX2.
            unsafe {
                let v = _mm256_sub_epi32(acc, _mm256_set1_epi32(offset));
                _mm256_storeu_si256(dst as *mut __m256i, v);
            }
        }
    }

    /// The packed GEMM on the AVX2 `pmaddwd` arm: four rows by one panel
    /// (eight accumulator pairs), a lone row by four panels.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2; `a` must be `m × b.k()` and `out`
    /// `m × b.n()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_packed_avx2(
        a: &[i8],
        m: usize,
        b: &crate::PackedB,
        out: &mut [i32],
    ) {
        // SAFETY: the caller checked the shapes; AVX2 is enabled here.
        unsafe { super::gemm_packed::<Madd, 4, 1, 4>(a, m, b, out) }
    }

    /// The packed GEMM on the AVX-VNNI `vpdpbusd` arm: four rows by two
    /// panels, a lone row by eight panels (eight accumulators each).
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2 and AVX-VNNI; `a` must be `m × b.k()` and
    /// `out` `m × b.n()`.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn matmul_packed_vnni(
        a: &[i8],
        m: usize,
        b: &crate::PackedB,
        out: &mut [i32],
    ) {
        // SAFETY: the caller checked the shapes; AVX2 and AVX-VNNI are
        // enabled here.
        unsafe { super::gemm_packed::<Vnni, 4, 2, 8>(a, m, b, out) }
    }

    /// Eight whole quad rows at a time: the eight columns' 32-byte runs
    /// are an 8 × 8 matrix of `u32` quads, transposed in registers so
    /// each output row is one 32-byte store.
    ///
    /// # Safety
    ///
    /// AVX2; every column holds `4 · quads` bytes and `dst` `32 · quads`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_panel_avx2(
        cols: &[&[i8]; super::PANEL],
        quads: usize,
        dst: &mut [u8],
    ) -> usize {
        let done = quads / 8 * 8;
        // SAFETY: quad rows `q..q + 8 ≤ quads` lie inside every column
        // and inside `dst`.
        unsafe {
            let bias = _mm256_set1_epi8(-128);
            let mut q = 0;
            while q < done {
                let mut r = [_mm256_setzero_si256(); 8];
                for (v, col) in r.iter_mut().zip(cols) {
                    *v = _mm256_loadu_si256(col.as_ptr().add(4 * q) as *const __m256i);
                }
                let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
                let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
                let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
                let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
                let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
                let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
                let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
                let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
                // u_i: columns 0–3 (or 4–7) of quad rows i and i + 4.
                let u = [
                    _mm256_unpacklo_epi64(t0, t2),
                    _mm256_unpackhi_epi64(t0, t2),
                    _mm256_unpacklo_epi64(t1, t3),
                    _mm256_unpackhi_epi64(t1, t3),
                ];
                let w = [
                    _mm256_unpacklo_epi64(t4, t6),
                    _mm256_unpackhi_epi64(t4, t6),
                    _mm256_unpacklo_epi64(t5, t7),
                    _mm256_unpackhi_epi64(t5, t7),
                ];
                let out = dst.as_mut_ptr().add(32 * q);
                for i in 0..4 {
                    let lo = _mm256_permute2x128_si256::<0x20>(u[i], w[i]);
                    let hi = _mm256_permute2x128_si256::<0x31>(u[i], w[i]);
                    _mm256_storeu_si256(
                        out.add(32 * i) as *mut __m256i,
                        _mm256_xor_si256(lo, bias),
                    );
                    _mm256_storeu_si256(
                        out.add(32 * (i + 4)) as *mut __m256i,
                        _mm256_xor_si256(hi, bias),
                    );
                }
                q += 8;
            }
        }
        done
    }

    /// Thirty-two columns at a time: the four rows' bytes interleave in
    /// registers into 32 four-byte quads, four panels' worth.
    ///
    /// # Safety
    ///
    /// AVX2; the rows share one length `n`, `at + 32 ≤ panel_bytes`, and
    /// `dst` holds `⌈n / 8⌉` panels of `panel_bytes`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_quad_avx2(
        rows: &[&[i8]; super::QUAD],
        dst: &mut [u8],
        at: usize,
        panel_bytes: usize,
    ) -> usize {
        let done = rows[0].len() / 32 * 32;
        // SAFETY: columns `j..j + 32 ≤ n` lie inside every row, and
        // panels `j / 8..j / 8 + 4` inside `dst`.
        unsafe {
            let bias = _mm256_set1_epi8(-128);
            let mut j = 0;
            while j < done {
                let mut v = [_mm256_setzero_si256(); 4];
                for (v, row) in v.iter_mut().zip(rows) {
                    *v = _mm256_loadu_si256(row.as_ptr().add(j) as *const __m256i);
                }
                let [a, b, c, d] = v;
                let ab_lo = _mm256_unpacklo_epi8(a, b);
                let ab_hi = _mm256_unpackhi_epi8(a, b);
                let cd_lo = _mm256_unpacklo_epi8(c, d);
                let cd_hi = _mm256_unpackhi_epi8(c, d);
                // Columns 0–3 | 16–19, 4–7 | 20–23, 8–11 | 24–27, 12–15 | 28–31.
                let q0 = _mm256_unpacklo_epi16(ab_lo, cd_lo);
                let q1 = _mm256_unpackhi_epi16(ab_lo, cd_lo);
                let q2 = _mm256_unpacklo_epi16(ab_hi, cd_hi);
                let q3 = _mm256_unpackhi_epi16(ab_hi, cd_hi);
                let panels = [
                    _mm256_permute2x128_si256::<0x20>(q0, q1),
                    _mm256_permute2x128_si256::<0x20>(q2, q3),
                    _mm256_permute2x128_si256::<0x31>(q0, q1),
                    _mm256_permute2x128_si256::<0x31>(q2, q3),
                ];
                for (i, v) in panels.into_iter().enumerate() {
                    let out = dst.as_mut_ptr().add((j / 8 + i) * panel_bytes + at);
                    _mm256_storeu_si256(out as *mut __m256i, _mm256_xor_si256(v, bias));
                }
                j += 32;
            }
        }
        done
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

    /// Sixteen channels' constants of a [`super::RequantLanes`] in
    /// registers.
    struct Lanes16 {
        half: __m256i,
        recip: __m256i,
        pass: __m256i,
        zero: __m256i,
        scale: __m256i,
    }

    impl Lanes16 {
        /// Channels `c..c + 16` of `lanes`.
        ///
        /// # Safety
        ///
        /// AVX2; `c + 16 ≤ lanes.channels()`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load(lanes: &super::RequantLanes, c: usize) -> Self {
            // SAFETY: the caller guarantees sixteen lanes from `c`.
            let load = |i: usize| unsafe {
                _mm256_loadu_si256(lanes.row(i).as_ptr().add(c) as *const __m256i)
            };
            Self {
                half: load(0),
                recip: load(1),
                pass: load(2),
                zero: load(3),
                scale: load(4),
            }
        }
    }

    /// Sixteen codes of [`super::requantize_scalar`] in 16-bit lanes:
    /// returns `(q, e)` widened to `i16`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn requant16(src: *const i8, l: &Lanes16, max_code: __m256i) -> (__m256i, __m256i) {
        // SAFETY: the caller guarantees sixteen readable codes at `src`.
        let a = unsafe { _mm256_cvtepi8_epi16(_mm_loadu_si128(src as *const __m128i)) };
        let n = _mm256_add_epi16(_mm256_abs_epi16(a), l.half);
        let hi = _mm256_mulhi_epu16(n, l.recip);
        let q = _mm256_add_epi16(hi, _mm256_and_si256(n, l.pass));
        // `a | 1` has the sign of `a` and is never 0, so `vpsignw` negates
        // exactly where `a < 0`, as the scalar twin does.
        let r = _mm256_sign_epi16(q, _mm256_or_si256(a, _mm256_set1_epi16(1)));
        let q2 = _mm256_sub_epi16(r, l.zero);
        let q2 = _mm256_min_epi16(_mm256_max_epi16(q2, _mm256_setzero_si256()), max_code);
        let e = _mm256_mullo_epi16(_mm256_add_epi16(q2, l.zero), l.scale);
        let e = _mm256_max_epi16(
            _mm256_min_epi16(e, _mm256_set1_epi16(127)),
            _mm256_set1_epi16(-127),
        );
        (q2, e)
    }

    /// Sixteen `i16` lanes narrowed to sixteen bytes in order, with
    /// signed or unsigned saturation (the values already fit).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn narrow16(v: __m256i, signed: bool) -> __m128i {
        let (lo, hi) = (_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        if signed {
            _mm_packs_epi16(lo, hi)
        } else {
            _mm_packus_epi16(lo, hi)
        }
    }

    /// [`super::requantize_rows_on`]: sixteen channels per step, each
    /// group of sixteen down every row with its constants held in
    /// registers; the last `d % 16` channels of each row by the scalar
    /// formula.
    ///
    /// # Safety
    ///
    /// AVX2; `d = lanes.channels() ≥ 16`, `src` whole rows, `codes` long
    /// enough for the last row's byte row, `expanded` as long as `src`,
    /// `layout` valid.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn requantize_rows_avx2(
        src: &[i8],
        first_row: usize,
        lanes: &super::RequantLanes,
        layout: super::CodeLayout,
        codes: &mut [u8],
        mut expanded: Option<&mut [i8]>,
    ) {
        let d = lanes.channels();
        let whole = d / 16 * 16;
        let vmax = _mm256_set1_epi16(layout.max_code());
        for c in (0..whole).step_by(16) {
            // SAFETY: channels `c..c + 16 ≤ d` lie inside the lanes, every
            // row, its byte row of `codes` and its row of `expanded`.
            unsafe {
                let l = Lanes16::load(lanes, c);
                let rows = src.chunks_exact(d).zip(layout.places(first_row));
                for (i, (row, (at, shift))) in rows.enumerate() {
                    let (q, e) = requant16(row.as_ptr().add(c), &l, vmax);
                    // Shifted codes stay below 256: `packus` keeps them.
                    let q = narrow16(_mm256_sll_epi16(q, _mm_cvtsi32_si128(shift as i32)), false);
                    let out = codes.as_mut_ptr().add(at * d + c) as *mut __m128i;
                    _mm_storeu_si128(out, _mm_or_si128(_mm_loadu_si128(out), q));
                    if let Some(x) = expanded.as_deref_mut() {
                        let out = x.as_mut_ptr().add(i * d + c) as *mut __m128i;
                        _mm_storeu_si128(out, narrow16(e, true));
                    }
                }
            }
        }
        if whole < d {
            let rows = src.chunks_exact(d).zip(layout.places(first_row));
            for (i, (row, place)) in rows.enumerate() {
                let exp = expanded.as_deref_mut().map(|e| &mut e[i * d..(i + 1) * d]);
                super::requantize_row_scalar(row, place, whole, lanes, layout, codes, exp);
            }
        }
    }

    /// [`super::col_min_max_i8_on`] on the first `d / 32 · 32` columns,
    /// 32 per step; returns how many it covered. `lo` and `hi` come in
    /// filled with `i8::MAX` and `i8::MIN`.
    ///
    /// # Safety
    ///
    /// AVX2; `src` whole rows of `d`, `lo` and `hi` `d` long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn col_min_max_avx2(
        src: &[i8],
        d: usize,
        lo: &mut [i8],
        hi: &mut [i8],
    ) -> usize {
        let done = d / 32 * 32;
        for c in (0..done).step_by(32) {
            // SAFETY: columns `c..c + 32 ≤ d` lie inside every row and
            // both outputs.
            unsafe {
                let (mut l, mut h) = (_mm256_set1_epi8(i8::MAX), _mm256_set1_epi8(i8::MIN));
                for row in src.chunks_exact(d) {
                    let v = _mm256_loadu_si256(row.as_ptr().add(c) as *const __m256i);
                    l = _mm256_min_epi8(l, v);
                    h = _mm256_max_epi8(h, v);
                }
                _mm256_storeu_si256(lo.as_mut_ptr().add(c) as *mut __m256i, l);
                _mm256_storeu_si256(hi.as_mut_ptr().add(c) as *mut __m256i, h);
            }
        }
        done
    }

    /// [`super::transpose_u8_on`] on whole 16 × 32 blocks: each register
    /// holds one source row's 32 columns, and four rounds of
    /// `unpack{lo,hi}` at 8, 16, 32 and 64 bits transpose both 16 × 16
    /// halves in their own 128-bit lanes. Returns the `(rows, cols)` the
    /// blocks covered.
    ///
    /// # Safety
    ///
    /// AVX2; `src` and `dst` are `rows · cols` long.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose_u8_avx2(
        src: &[u8],
        rows: usize,
        cols: usize,
        dst: &mut [u8],
    ) -> (usize, usize) {
        let (rb, cb) = (rows / 16 * 16, cols / 32 * 32);
        for r0 in (0..rb).step_by(16) {
            for c0 in (0..cb).step_by(32) {
                // SAFETY: rows `r0..r0 + 16 ≤ rows` and columns
                // `c0..c0 + 32 ≤ cols` lie inside both matrices.
                unsafe {
                    let mut v = [_mm256_setzero_si256(); 16];
                    for (i, v) in v.iter_mut().enumerate() {
                        let p = src.as_ptr().add((r0 + i) * cols + c0);
                        *v = _mm256_loadu_si256(p as *const __m256i);
                    }
                    // Per 128-bit lane (16 columns), round 1 pairs rows:
                    // `w[p]` holds rows 2p, 2p + 1 of columns 0–7 as
                    // 16-bit words, `w[8 + p]` of columns 8–15.
                    let mut w = [_mm256_setzero_si256(); 16];
                    for p in 0..8 {
                        w[p] = _mm256_unpacklo_epi8(v[2 * p], v[2 * p + 1]);
                        w[8 + p] = _mm256_unpackhi_epi8(v[2 * p], v[2 * p + 1]);
                    }
                    // Round 2: `x[4b + q]` holds rows 4q..4q + 4 of the
                    // four columns 4b..4b + 4 as 32-bit words.
                    let mut x = [_mm256_setzero_si256(); 16];
                    for h in 0..2 {
                        for q in 0..4 {
                            let (s, t) = (w[8 * h + 2 * q], w[8 * h + 2 * q + 1]);
                            x[4 * (2 * h) + q] = _mm256_unpacklo_epi16(s, t);
                            x[4 * (2 * h + 1) + q] = _mm256_unpackhi_epi16(s, t);
                        }
                    }
                    // Round 3: `y[2p + o]` holds rows 8o..8o + 8 of the
                    // two columns 2p, 2p + 1 as 64-bit words.
                    let mut y = [_mm256_setzero_si256(); 16];
                    for b in 0..4 {
                        for o in 0..2 {
                            let (s, t) = (x[4 * b + 2 * o], x[4 * b + 2 * o + 1]);
                            y[2 * (2 * b) + o] = _mm256_unpacklo_epi32(s, t);
                            y[2 * (2 * b + 1) + o] = _mm256_unpackhi_epi32(s, t);
                        }
                    }
                    // Round 4: whole 16-row columns, column j of the block
                    // in the low lane and column 16 + j in the high one.
                    for p in 0..8 {
                        let (s, t) = (y[2 * p], y[2 * p + 1]);
                        let cols2 = [_mm256_unpacklo_epi64(s, t), _mm256_unpackhi_epi64(s, t)];
                        for (m, col) in cols2.into_iter().enumerate() {
                            let j = c0 + 2 * p + m;
                            let lo = dst.as_mut_ptr().add(j * rows + r0) as *mut __m128i;
                            let hi = dst.as_mut_ptr().add((j + 16) * rows + r0) as *mut __m128i;
                            _mm_storeu_si128(lo, _mm256_castsi256_si128(col));
                            _mm_storeu_si128(hi, _mm256_extracti128_si256::<1>(col));
                        }
                    }
                }
            }
        }
        (rb, cb)
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

    /// Whether the CPU has the dot-product extension (`SDOT`), detected
    /// once per process.
    pub(super) fn has_dotprod() -> bool {
        static DOTPROD: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *DOTPROD.get_or_init(|| std::arch::is_aarch64_feature_detected!("dotprod"))
    }

    /// `acc[i] += Σ_t b[4i + t] · a[4i + t]` — one `SDOT`, written as
    /// inline assembly so it needs no unstable intrinsic.
    #[inline]
    #[target_feature(enable = "neon,dotprod")]
    unsafe fn sdot(acc: int32x4_t, b: int8x16_t, a: int8x16_t) -> int32x4_t {
        let mut acc = acc;
        // SAFETY: a register-only instruction; the caller guarantees the
        // dot-product extension.
        unsafe {
            std::arch::asm!(
                "sdot {acc:v}.4s, {b:v}.16b, {a:v}.16b",
                acc = inout(vreg) acc,
                b = in(vreg) b,
                a = in(vreg) a,
                options(pure, nomem, nostack),
            );
        }
        acc
    }

    /// The NEON `SDOT` arm of the packed GEMM: the stored bias is undone
    /// on load, and one `SDOT` per half-quad (four columns of four bytes)
    /// adds four exact products into each output's lane.
    struct Sdot;

    impl super::PackedArm for Sdot {
        type A = int8x16_t;
        type B = (int8x16_t, int8x16_t);
        type Acc = (int32x4_t, int32x4_t);
        const BIASED: bool = false;

        #[inline(always)]
        unsafe fn zero() -> Self::Acc {
            // SAFETY: the caller guarantees NEON.
            unsafe { (vdupq_n_s32(0), vdupq_n_s32(0)) }
        }

        #[inline(always)]
        unsafe fn load_b(p: *const u8) -> Self::B {
            // SAFETY: the caller guarantees 32 readable bytes and NEON.
            unsafe {
                let bias = vdupq_n_u8(0x80);
                (
                    vreinterpretq_s8_u8(veorq_u8(vld1q_u8(p), bias)),
                    vreinterpretq_s8_u8(veorq_u8(vld1q_u8(p.add(16)), bias)),
                )
            }
        }

        #[inline(always)]
        unsafe fn bcast_a(quad: i32) -> Self::A {
            // SAFETY: the caller guarantees NEON.
            unsafe { vreinterpretq_s8_s32(vdupq_n_s32(quad)) }
        }

        #[inline(always)]
        unsafe fn mac(acc: Self::Acc, b: Self::B, a: Self::A) -> Self::Acc {
            // SAFETY: the caller guarantees NEON and the dot-product
            // extension.
            unsafe { (sdot(acc.0, b.0, a), sdot(acc.1, b.1, a)) }
        }

        #[inline(always)]
        unsafe fn store(acc: Self::Acc, offset: i32, dst: *mut i32) {
            debug_assert_eq!(offset, 0, "the SDOT arm is unbiased");
            // SAFETY: the caller guarantees eight writable outputs and
            // NEON.
            unsafe {
                vst1q_s32(dst, acc.0);
                vst1q_s32(dst.add(4), acc.1);
            }
        }
    }

    /// The packed GEMM on the NEON `SDOT` arm: four rows by one panel, a
    /// lone row by four panels (eight accumulators each).
    ///
    /// # Safety
    ///
    /// The CPU must have NEON and the dot-product extension; `a` must be
    /// `m × b.k()` and `out` `m × b.n()`.
    #[target_feature(enable = "neon,dotprod")]
    pub(super) unsafe fn matmul_packed_sdot(
        a: &[i8],
        m: usize,
        b: &crate::PackedB,
        out: &mut [i32],
    ) {
        // SAFETY: the caller checked the shapes; NEON and the dot-product
        // extension are enabled here.
        unsafe { super::gemm_packed::<Sdot, 4, 1, 4>(a, m, b, out) }
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
    /// four-row blocks, the one-row path and every leftover count), `k`
    /// around the four-byte quads and the 32-byte loads, and `n` around
    /// the eight-column panels and the one-row path's eight-panel blocks.
    fn gemm_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        (1..=9).flat_map(|m| {
            [1, 3, 4, 5, 63, 64, 65, 128]
                .into_iter()
                .flat_map(move |k| [1, 7, 8, 15, 16, 17, 63, 64, 65].map(|n| (m, k, n)))
        })
    }

    /// The long-`k` shapes, at `k = DOT_I8_MAX_LEN`: one row, a four-row
    /// block and a block plus a leftover row, against one partial panel,
    /// one whole panel and two panels plus a partial one. The full
    /// `m × n` sweep at this `k` would take minutes in a debug build.
    fn long_gemm_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        let k = crate::matmul::DOT_I8_MAX_LEN;
        [1, 4, 5]
            .into_iter()
            .flat_map(move |m| [1, 8, 17].map(|n| (m, k, n)))
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
    fn gemm_inputs(m: usize, k: usize, n: usize) -> [(Vec<i8>, Vec<i8>); 3] {
        [
            (pattern_i8(m * k, 37, 11), pattern_i8(n * k, 91, 3)),
            (extreme_rows(m, k, 0), extreme_rows(n, k, 1)),
            (extreme_rows(m, k, 1), extreme_rows(n, k, 1)),
        ]
    }

    /// `C = A · Bᵀ` by the definition: one left-to-right dot per output.
    fn reference_gemm(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                out.push(dot_i8_scalar(
                    &a[i * k..(i + 1) * k],
                    &b[j * k..(j + 1) * k],
                ));
            }
        }
        out
    }

    /// Checks one packed-GEMM arm against the definition over
    /// [`gemm_shapes`] and [`long_gemm_shapes`]. At `k = DOT_I8_MAX_LEN`
    /// the worst-case operands make the biased arms' sums wrap, so only
    /// their `128 · Σa` offset makes them exact.
    fn assert_gemm_matches_scalar(arm: &str, gemm: impl Fn(&[i8], usize, &PackedB) -> Vec<i32>) {
        for (m, k, n) in gemm_shapes().chain(long_gemm_shapes()) {
            for (a, b) in gemm_inputs(m, k, n) {
                let packed = PackedB::from_rows(&b, n, k);
                assert_eq!(
                    reference_gemm(&a, &b, m, k, n),
                    gemm(&a, m, &packed),
                    "{arm} shape ({m},{k},{n})"
                );
            }
        }
    }

    #[test]
    fn matmul_equivalence_at_ragged_shapes() {
        assert_gemm_matches_scalar("scalar", |a, m, b| {
            let mut out = Vec::new();
            matmul_i8_packed_on(SimdLevel::Scalar, a, m, b, &mut out);
            out
        });
        let Some(arm) = simd_arm() else { return };
        assert_gemm_matches_scalar("dispatched", |a, m, b| {
            let mut out = Vec::new();
            matmul_i8_packed_on(arm, a, m, b, &mut out);
            out
        });
    }

    /// Every x86 arm of the packed GEMM called directly, whichever one
    /// dispatch picks.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn x86_gemm_arms_match_scalar() {
        if !SimdLevel::Avx2.available() {
            eprintln!("x86_gemm_arms_match_scalar: no AVX2, both x86 arms skipped");
            return;
        }
        assert_gemm_matches_scalar("avx2", |a, m, b| {
            let mut out = vec![0; m * b.n()];
            // SAFETY: AVX2 checked above; the sweep builds consistent shapes.
            unsafe { x86::matmul_packed_avx2(a, m, b, &mut out) };
            out
        });
        if !x86::has_avx_vnni() {
            eprintln!("x86_gemm_arms_match_scalar: no AVX-VNNI, the VNNI arm skipped");
            return;
        }
        assert_gemm_matches_scalar("vnni", |a, m, b| {
            let mut out = vec![0; m * b.n()];
            // SAFETY: AVX2 and AVX-VNNI checked above; consistent shapes.
            unsafe { x86::matmul_packed_vnni(a, m, b, &mut out) };
            out
        });
    }

    /// The pack-then-multiply wrapper, on every arm the machine has, and
    /// a packed operand reused across calls of different `m`.
    #[test]
    fn unpacked_wrapper_and_reuse_match_the_definition() {
        let levels = [Some(SimdLevel::Scalar), simd_arm()];
        for level in levels.into_iter().flatten() {
            for (m, k, n) in [(3, 64, 17), (1, 5, 9), (8, 130, 64), (0, 4, 8), (2, 0, 3)] {
                let a = pattern_i8(m * k, 29, 7);
                let b = pattern_i8(n * k, 83, 1);
                let mut out = vec![-1; 3];
                matmul_i8t_on(level, &a, &b, m, k, n, &mut out);
                assert_eq!(
                    out,
                    reference_gemm(&a, &b, m, k, n),
                    "{level:?} ({m},{k},{n})"
                );
            }
            let (k, n) = (40, 11);
            let b = pattern_i8(n * k, 61, 2);
            let packed = PackedB::from_rows(&b, n, k);
            let mut out = Vec::new();
            for m in [4, 1, 6] {
                let a = pattern_i8(m * k, 17, m);
                matmul_i8_packed_on(level, &a, m, &packed, &mut out);
                assert_eq!(
                    out,
                    reference_gemm(&a, &b, m, k, n),
                    "{level:?} reuse m {m}"
                );
            }
        }
    }

    /// The vector pack kernels against the layout's definition, at
    /// lengths around their 8-quad and 32-column steps; whatever a kernel
    /// reports as done must be exactly the definition, and nothing past it
    /// may be touched.
    #[test]
    fn pack_kernels_match_the_layout() {
        let Some(arm) = simd_arm() else { return };
        for quads in [0usize, 1, 7, 8, 9, 16, 17, 33] {
            let cols: Vec<Vec<i8>> = (0..PANEL)
                .map(|c| pattern_i8(QUAD * quads, 37 + c, c))
                .collect();
            let cols: [&[i8]; PANEL] = std::array::from_fn(|c| &cols[c][..]);
            let mut dst = vec![0u8; QUAD_BYTES * quads];
            let done = pack_panel_on(arm, &cols, quads, &mut dst);
            assert!(
                done <= quads && done.is_multiple_of(8),
                "quads {quads}: done {done}"
            );
            for (at, &byte) in dst.iter().enumerate() {
                let (q, c, t) = (at / QUAD_BYTES, at % QUAD_BYTES / QUAD, at % QUAD);
                let want = if q < done {
                    cols[c][QUAD * q + t] as u8 ^ 0x80
                } else {
                    0
                };
                assert_eq!(byte, want, "quads {quads}: byte {at}");
            }
        }
        for n in [0usize, 1, 31, 32, 33, 64, 95, 130] {
            let rows: Vec<Vec<i8>> = (0..QUAD).map(|t| pattern_i8(n, 53 + t, 3 * t)).collect();
            let rows: [&[i8]; QUAD] = std::array::from_fn(|t| &rows[t][..]);
            let (at, panel_bytes) = (2 * QUAD_BYTES, 4 * QUAD_BYTES);
            let mut dst = vec![0u8; n.div_ceil(PANEL) * panel_bytes];
            let done = pack_quad_on(arm, &rows, &mut dst, at, panel_bytes);
            assert!(done <= n && done.is_multiple_of(32), "n {n}: done {done}");
            for (i, &byte) in dst.iter().enumerate() {
                let (p, off) = (i / panel_bytes, i % panel_bytes);
                let j = p * PANEL + (off.wrapping_sub(at)) / QUAD;
                let inside = (at..at + QUAD_BYTES).contains(&off) && j < done;
                let want = if inside {
                    rows[off % QUAD][j] as u8 ^ 0x80
                } else {
                    0
                };
                assert_eq!(byte, want, "n {n}: byte {i}");
            }
        }
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

    /// Lanes for stage 2's divisors `1..=255`: the reciprocal
    /// multiply-shift of each, a zero point in `−128..=127` and the
    /// divisor as the scale.
    fn divisor_lanes(
        d: usize,
        mut next: impl FnMut() -> u32,
    ) -> (RequantLanes, Vec<i32>, Vec<i32>) {
        let mut lanes = RequantLanes::new(d);
        let (mut divisors, mut zeros) = (Vec::with_capacity(d), Vec::with_capacity(d));
        for c in 0..d {
            let s = 1 + next() % 255;
            let (recip, pass) = if s == 1 {
                (0, u16::MAX)
            } else {
                ((1u32 << 16).div_ceil(s) as u16, 0)
            };
            let zero = (next() % 256) as i16 - 128;
            lanes.set(c, (s / 2) as u16, recip, pass, zero, s as i16);
            zeros.push(i32::from(zero));
            divisors.push(s as i32);
        }
        (lanes, divisors, zeros)
    }

    /// `requantize_rows_on`'s outputs on `level` for `src` starting at
    /// row `first`, with and without the expansion.
    fn requantize(
        level: SimdLevel,
        src: &[i8],
        first: usize,
        lanes: &RequantLanes,
        layout: CodeLayout,
    ) -> (Vec<u8>, Vec<i8>) {
        let d = lanes.channels();
        let byte_rows = (first + src.len() / d).div_ceil(layout.per);
        let mut codes = vec![0u8; byte_rows * d];
        let mut expanded = vec![0i8; src.len()];
        requantize_rows_on(
            level,
            src,
            first,
            lanes,
            layout,
            &mut codes,
            Some(&mut expanded),
        );
        let mut alone = vec![0u8; byte_rows * d];
        requantize_rows_on(level, src, first, lanes, layout, &mut alone, None);
        assert_eq!(alone, codes, "codes depend on the expansion");
        (codes, expanded)
    }

    /// The layouts stage 2 packs with, and plain bytes.
    const LAYOUTS: [CodeLayout; 6] = [
        CodeLayout { bits: 1, per: 1 },
        CodeLayout { bits: 4, per: 1 },
        CodeLayout { bits: 8, per: 1 },
        CodeLayout { bits: 4, per: 2 },
        CodeLayout { bits: 3, per: 2 },
        CodeLayout { bits: 2, per: 4 },
    ];

    /// The scalar formula against its definition for stage 2's
    /// divisors: `round(a / s)` half away from zero, minus the zero
    /// point, clamped, and its expansion.
    #[test]
    fn requantize_scalar_matches_round_half_away_division() {
        let mut state = 7u64;
        let next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let (lanes, divisors, zeros) = divisor_lanes(255, next);
        for (c, (&s, &z)) in divisors.iter().zip(&zeros).enumerate() {
            for a in -128..=127i8 {
                let (q, e) = requantize_scalar(a, lanes.lane(c), 15);
                let r = (f64::from(a) / f64::from(s)).round() as i32;
                let want = (r - z).clamp(0, 15);
                assert_eq!(i32::from(q), want, "a {a} s {s}");
                let back = ((want + z) * s).clamp(-127, 127);
                assert_eq!(i32::from(e), back, "a {a} s {s}");
            }
        }
    }

    /// The AVX2 arm of `requantize_rows_on` against the scalar arm at
    /// widths around its 16-channel steps, for stage 2's divisors and for
    /// arbitrary 16-bit lanes (where the wrapping arithmetic decides).
    #[test]
    fn requantize_arms_match_at_ragged_widths() {
        let Some(arm) = simd_arm() else {
            eprintln!("no SIMD arm on this machine: requantize equivalence skipped");
            return;
        };
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for d in [1, 3, 15, 16, 17, 31, 32, 33, 64, 100, 128] {
            for rows in [1, 2, 5] {
                let mut src: Vec<i8> = (0..rows * d).map(|_| next() as i8).collect();
                src[0] = -128;
                src[rows * d - 1] = 127;
                let (stage2, _, _) = divisor_lanes(d, &mut next);
                let mut wild = RequantLanes::new(d);
                for c in 0..d {
                    let pass = [0, u16::MAX, next() as u16][c % 3];
                    let (half, recip) = (next() as u16, next() as u16);
                    wild.set(c, half, recip, pass, next() as i16, next() as i16);
                }
                for (lanes, what) in [(&stage2, "stage 2"), (&wild, "arbitrary")] {
                    for layout in LAYOUTS {
                        for first in [0, 1, 3] {
                            assert_eq!(
                                requantize(SimdLevel::Scalar, &src, first, lanes, layout),
                                requantize(arm, &src, first, lanes, layout),
                                "{what} lanes, {rows} x {d} from row {first}, {layout:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Packed rows hold each row's code at its place: the scalar arm
    /// against a per-element placement.
    #[test]
    fn requantize_places_codes_as_the_layout_says() {
        let d = 5;
        let src: Vec<i8> = (0..7 * d).map(|i| (i * 29 % 256) as u8 as i8).collect();
        let mut lanes = RequantLanes::new(d);
        for c in 0..d {
            lanes.set(c, 1, (1u32 << 16).div_ceil(3) as u16, 0, -40 + c as i16, 3);
        }
        for layout in LAYOUTS {
            let (codes, _) = requantize(SimdLevel::Scalar, &src, 2, &lanes, layout);
            let mut want = vec![0u8; codes.len()];
            for (i, row) in src.chunks_exact(d).enumerate() {
                let r = 2 + i;
                for (c, &a) in row.iter().enumerate() {
                    let (q, _) = requantize_scalar(a, lanes.lane(c), (1 << layout.bits) - 1);
                    want[r / layout.per * d + c] |= q << ((r % layout.per) as u32 * layout.bits);
                }
            }
            assert_eq!(codes, want, "{layout:?}");
        }
    }

    #[test]
    fn col_min_max_arms_match_the_definition() {
        let levels = [Some(SimdLevel::Scalar), simd_arm()];
        for d in [1, 3, 31, 32, 33, 64, 100] {
            for rows in [0, 1, 2, 9] {
                let src: Vec<i8> = (0..rows * d).map(|i| (i * 151 % 256) as u8 as i8).collect();
                let col = |c: usize| src.iter().skip(c).step_by(d).copied();
                let want_lo: Vec<i8> = (0..d).map(|c| col(c).min().unwrap_or(i8::MAX)).collect();
                let want_hi: Vec<i8> = (0..d).map(|c| col(c).max().unwrap_or(i8::MIN)).collect();
                for level in levels.into_iter().flatten() {
                    let (mut lo, mut hi) = (vec![0i8; d], vec![0i8; d]);
                    col_min_max_i8_on(level, &src, d, &mut lo, &mut hi);
                    assert_eq!((&lo, &hi), (&want_lo, &want_hi), "{level:?} {rows} x {d}");
                }
            }
        }
    }

    #[test]
    fn transpose_arms_match_at_ragged_shapes() {
        let levels = [Some(SimdLevel::Scalar), simd_arm()];
        for rows in [0, 1, 15, 16, 17, 31, 32, 33, 48, 64] {
            for cols in [0, 1, 16, 31, 32, 33, 64, 65, 128] {
                let src: Vec<u8> = (0..rows * cols).map(|i| (i * 37 % 251) as u8).collect();
                let mut want = vec![0u8; rows * cols];
                crate::transpose_into(&src, rows, cols, &mut want);
                for level in levels.into_iter().flatten() {
                    let mut got = vec![0xAAu8; rows * cols];
                    transpose_u8_on(level, &src, rows, cols, &mut got);
                    assert_eq!(got, want, "{level:?} {rows} x {cols}");
                }
            }
        }
    }

    #[test]
    fn crc32_fold_matches_bitwise_crc_over_the_prefix_it_consumes() {
        // Bit-at-a-time reflected CRC32 update: the definition the
        // table arm in `turbo-robust` and the fold both implement.
        fn bitwise(mut crc: u32, data: &[u8]) -> u32 {
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            crc
        }
        let data: Vec<u8> = (0..1216u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect();
        let levels = [Some(SimdLevel::Scalar), simd_arm()];
        for len in (0..=200).chain([255, 256, 257, 1023, 1024, 1199]) {
            for start in [0, 1, 7] {
                for crc in [0xFFFF_FFFF, 0x1234_5678] {
                    let data = &data[start..start + len];
                    for level in levels.into_iter().flatten() {
                        let (got, done) = crc32_fold_on(level, crc, data);
                        assert!(done <= len && done.is_multiple_of(16), "{level:?} {len}");
                        if len < CRC32_FOLD_MIN_LEN {
                            assert_eq!(done, 0, "{level:?} folded a short input");
                        }
                        #[cfg(target_arch = "x86_64")]
                        if level == SimdLevel::Avx2 && x86::has_pclmulqdq() && len >= 64 {
                            assert_eq!(done, len & !15, "the fold left a whole 16-byte block");
                        }
                        assert_eq!(got, bitwise(crc, &data[..done]), "{level:?} {len} @{start}");
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn requesting_neon_on_x86_panics() {
        let r = std::panic::catch_unwind(|| dot_i8_on(SimdLevel::Neon, &[1], &[2]));
        assert!(r.is_err());
    }
}

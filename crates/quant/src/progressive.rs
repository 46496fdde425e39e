//! Blockwise Progressive Quantization (BPQ), the core of FlashQ.
//!
//! Stage 1 quantizes a FlashAttention tile symmetrically to INT8
//! ([`crate::symmetric`], Equation 9). Stage 2 — implemented here —
//! re-quantizes the INT8 codes *in integer arithmetic* to asymmetric
//! INT4/INT2, channel-wise in groups of consecutive tokens (Equation 10,
//! Algorithm 1):
//!
//! ```text
//! s_int = ⌈(max(q¹) − min(q¹)) / (2^bits − 1)⌉         (stored in INT8)
//! z_int = round(min(q¹) / s_int)                       (stored in INT8)
//! q²    = round(q¹ / s_int) − z_int                    (packed INT4/INT2)
//! ```
//!
//! The scale uses *ceiling* division: a rounded-down scale would make the
//! code range systematically overflow `2^bits − 1` and clamp, which is
//! exactly the artifact the paper's ⌈·⌉ brackets avoid.
//!
//! Decode-side dequantization is the pure-integer `q̂¹ = (q² + z_int)·s_int`,
//! which is what makes TurboAttention's decompression so much cheaper than
//! the FP16 dequantization of KIVI/GEAR: the result feeds the INT8 matmul
//! directly and only the stage-1 f32 scale survives as a scalar correction.
//!
//! The codes are stored channel by channel, so each (channel, group) is
//! one contiguous run:
//!
//! * **Compress** ([`ProgressiveBlock::quantize_from_int8`]) rounds every
//!   code with a reciprocal multiply-shift instead of an integer division
//!   (exact over every numerator and divisor stage 2 can produce). On
//!   AVX2, a tile at least 16 channels wide is compressed in its own row
//!   layout: per-channel min/max folds down each token group's rows, then
//!   the rounding across whole rows in 16-bit lanes, with the codes
//!   OR-ed into their packed bytes as they come out, so only the packed
//!   bytes are transposed to channel order. The scalar arm, the
//!   reference, transposes the INT8 tile once and walks the runs.
//!   [`ProgressiveBlock::quantize_and_expand_from_int8`] also returns
//!   the expansion `(q² + z)·s` from the same pass — how a prefill block
//!   hands over its decode tile without an unpack.
//! * **Expand** ([`ProgressiveBlock::dequantize_channel_major_into`])
//!   unpacks the codes a byte at a time and evaluates each group's
//!   `(q² + z)·s` in 16-bit lanes, channel by channel.
//!   [`ProgressiveBlock::dequantize_to_int8`] adds one transpose for the
//!   row-major layout; [`ProgressiveBlock::dequantize_channels`] hands
//!   the expanded channels to the caller a few at a time instead, which
//!   is how the decode tile cache writes the GEMM's packed operands
//!   directly.

use crate::bitwidth::BitWidth;
use crate::packing::{pack_into, unpack_into, PackedCodes};
use crate::symmetric::{SymQuantized, SYM_INT8_DIVISOR};
use turbo_tensor::simd::{
    col_min_max_i8_on, requantize_rows_on, simd_level, transpose_u8_on, CodeLayout, RequantLanes,
    SimdLevel, REQUANT_LANES,
};
use turbo_tensor::{transpose_into, Matrix};

/// `⌈2¹⁶ / s⌉` for every divisor `2 ≤ s ≤ 255` stage 2 can meet.
const RECIP: [u16; 256] = {
    let mut t = [0u16; 256];
    let mut s = 2;
    while s < 256 {
        t[s] = (1u32 << 16).div_ceil(s as u32) as u16;
        s += 1;
    }
    t
};

/// `⌊n / s⌋` as `(n · ⌈2¹⁶ / s⌉) >> 16`, exact whenever
/// `n · (s − 1) < 2¹⁶`; `2 ≤ s ≤ 255`.
#[inline]
fn div_floor(n: u32, s: usize) -> u32 {
    (n * u32::from(RECIP[s])) >> 16
}

/// Integer division by one fixed divisor `s`, rounding half away from
/// zero (`f32::round` of the exact quotient), without a division.
///
/// Stage 2 divides INT8 codes (`|a| ≤ 128`) by scales `s ≤ 255`, so the
/// numerator `n = |a| + ⌊s/2⌋ ≤ 255` keeps [`div_floor`] exact, and all
/// of it fits 16-bit lanes (a high-half multiply). `s = 1`, whose
/// reciprocal would be 2¹⁶, passes `n` through instead.
#[derive(Clone, Copy, Debug)]
struct RoundDiv {
    half: u16,
    recip: u16,
    pass: u16,
}

impl RoundDiv {
    fn new(s: i32) -> Self {
        debug_assert!(
            (1..=255).contains(&s),
            "divisor {s} outside stage 2's range"
        );
        if s == 1 {
            return Self {
                half: 0,
                recip: 0,
                pass: u16::MAX,
            };
        }
        Self {
            half: (s / 2) as u16,
            recip: RECIP[s as usize],
            pass: 0,
        }
    }

    #[inline]
    fn apply(self, a: i16) -> i16 {
        let n = a.unsigned_abs() + self.half;
        let q = ((u32::from(n) * u32::from(self.recip)) >> 16) as u16 + (n & self.pass);
        if a < 0 {
            -(q as i16)
        } else {
            q as i16
        }
    }
}

/// Expands one channel: each `group_size` run of second-stage codes
/// becomes `clamp((q² + z)·s, −127, 127)` with its group's parameters.
fn expand_channel(codes: &[u8], params: &[GroupParams], group_size: usize, out: &mut [i8]) {
    let runs = out.chunks_mut(group_size).zip(codes.chunks(group_size));
    for ((out, codes), p) in runs.zip(params) {
        let (s, z) = (i16::from(p.scale), i16::from(p.zero));
        for (o, &q2) in out.iter_mut().zip(codes) {
            *o = ((i16::from(q2) + z) * s).clamp(-127, 127) as i8;
        }
    }
}

/// Groups per channel of a `rows`-token block (0 for an empty block).
fn groups_per_channel(rows: usize, group_size: usize) -> usize {
    rows.div_ceil(group_size)
}

/// A channel's stage-2 divisor and zero point over a run whose codes
/// span `lo..=hi`: `s = ⌈(hi − lo) / (2^bits − 1)⌉` (at least 1) and
/// `z = round(lo / s)`.
fn run_params(lo: i8, hi: i8, bits: BitWidth) -> (RoundDiv, GroupParams) {
    let denom = bits.levels() - 1;
    // Ceiling division: guarantees (max-min)/s ≤ levels-1 so codes cannot
    // systematically overflow the range.
    let gap = (i32::from(hi) - i32::from(lo)) as u32;
    let s = (div_floor(gap + denom - 1, denom as usize) as i32).max(1);
    let div = RoundDiv::new(s);
    let params = GroupParams {
        scale: s as i8,
        zero: div.apply(lo.into()) as i8,
    };
    (div, params)
}

/// The channel-major reference compress: transposes the row-major INT8
/// tile once, so each (channel, group) is one contiguous run; takes each
/// run's min/max, rounds every code with its run's [`RoundDiv`], and
/// packs the codes. Returns the packed bytes and the group parameters.
fn compress_channels(
    q1: &SymQuantized,
    bits: BitWidth,
    group_size: usize,
    mut expanded: Option<&mut [i8]>,
) -> (Vec<u8>, Vec<GroupParams>) {
    let (rows, cols) = (q1.rows(), q1.cols());
    let n = rows * cols;
    let mut params = Vec::with_capacity(cols * groups_per_channel(rows, group_size));
    let mut t = vec![0i8; n];
    transpose_into(q1.codes(), rows, cols, &mut t);
    let mut codes = vec![0u8; n];
    let max_code = i16::from(bits.max_code());
    // `max(1)`: an empty tile has no channels to walk, but
    // `chunks_exact` rejects a zero length.
    let channel_len = rows.max(1);
    let channels = t
        .chunks_exact(channel_len)
        .zip(codes.chunks_exact_mut(channel_len));
    for (c, (channel, out)) in channels.enumerate() {
        let runs = channel.chunks(group_size).zip(out.chunks_mut(group_size));
        for (g, (run, out)) in runs.enumerate() {
            // Min and max as unsigned bytes (bias 0x80), which every SIMD
            // level compares natively.
            let (lo, hi) = run.iter().fold((u8::MAX, 0u8), |(lo, hi), &v| {
                let u = v as u8 ^ 0x80;
                (lo.min(u), hi.max(u))
            });
            let (div, p) = run_params((lo ^ 0x80) as i8, (hi ^ 0x80) as i8, bits);
            params.push(p);
            let z = i16::from(p.zero);
            for (o, &v) in out.iter_mut().zip(run) {
                *o = (div.apply(v.into()) - z).clamp(0, max_code) as u8;
            }
            if let Some(e) = expanded.as_deref_mut() {
                let s = i16::from(p.scale);
                for (r, &q2) in out.iter().enumerate() {
                    let at = (g * group_size + r) * cols + c;
                    e[at] = ((i16::from(q2) + z) * s).clamp(-127, 127) as i8;
                }
            }
        }
    }
    let mut bytes = vec![0u8; bits.packed_bytes(n)];
    pack_into(&codes, bits, &mut bytes);
    (bytes, params)
}

/// The lane-parallel compress, in the INT8 tile's own row layout, one
/// token group at a time: each channel's min and max over the group are
/// folds down its rows ([`col_min_max_i8_on`]), each channel's `(s, z)`
/// and [`RoundDiv`] constants follow from them, and every code is
/// rounded across whole rows in 16-bit lanes ([`requantize_rows_on`]).
/// Only the finished codes move to the packed channel-major order: when
/// every channel's run fills whole bytes (`rows` a multiple of the codes
/// per byte), the rounding pass already ORs each code into its packed
/// byte, lane by lane, so the one transpose moves packed bytes; otherwise
/// it moves one byte per code, which are then packed.
fn compress_rows(
    level: SimdLevel,
    q1: &SymQuantized,
    bits: BitWidth,
    group_size: usize,
    mut expanded: Option<&mut [i8]>,
) -> (Vec<u8>, Vec<GroupParams>) {
    let (rows, cols) = (q1.rows(), q1.cols());
    let n = rows * cols;
    let groups = groups_per_channel(rows, group_size);
    let mut params = vec![GroupParams { scale: 0, zero: 0 }; cols * groups];
    let per = bits.elems_per_byte();
    let layout = CodeLayout {
        bits: bits.bits(),
        per: if rows.is_multiple_of(per) { per } else { 1 },
    };
    let mut codes = vec![0u8; n / layout.per];
    let mut lanes = RequantLanes::new(cols);
    let mut range = vec![0i8; 2 * cols];
    let (lo, hi) = range.split_at_mut(cols);
    let group_len = group_size * cols;
    for (g, src) in q1.codes().chunks(group_len).enumerate() {
        col_min_max_i8_on(level, src, cols, lo, hi);
        let channels = params.iter_mut().skip(g).step_by(groups);
        for (c, ((p, &lo), &hi)) in channels.zip(&*lo).zip(&*hi).enumerate() {
            let (div, run) = run_params(lo, hi, bits);
            *p = run;
            let (z, s) = (i16::from(run.zero), i16::from(run.scale));
            lanes.set(c, div.half, div.recip, div.pass, z, s);
        }
        let at = g * group_len;
        let exp = expanded.as_deref_mut().map(|e| &mut e[at..at + src.len()]);
        requantize_rows_on(level, src, g * group_size, &lanes, layout, &mut codes, exp);
    }
    let mut bytes = vec![0u8; bits.packed_bytes(n)];
    if layout.per == per {
        transpose_u8_on(level, &codes, rows / per, cols, &mut bytes);
    } else {
        let mut channel_major = vec![0u8; n];
        transpose_u8_on(level, &codes, rows, cols, &mut channel_major);
        pack_into(&channel_major, bits, &mut bytes);
    }
    (bytes, params)
}

/// Why checked progressive quantization refused an input.
///
/// Produced by [`ProgressiveBlock::try_quantize_from_int8`] — the
/// non-panicking entry point the fault-tolerant cache path uses. A
/// caller that sees one is expected to degrade (sanitize the input, fall
/// back a precision rung) rather than abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantError {
    /// The stage-1 scale is so large that dequantization would overflow
    /// f32 (an extreme outlier drove `max|x|` near `f32::MAX`), or it is
    /// not a positive finite number at all.
    ScaleOverflow,
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::ScaleOverflow => write!(f, "quantization scale overflow"),
        }
    }
}

impl std::error::Error for QuantError {}

/// Largest stage-1 scale that still dequantizes without overflowing f32:
/// the biggest reconstructed magnitude is `127 · scale`.
const MAX_OUTER_SCALE: f32 = f32::MAX / 127.0;

/// Per-(channel, group) integer parameters of the second BPQ stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupParams {
    /// Integer scale `s_int ≥ 1` in INT8 units.
    pub scale: i8,
    /// Integer zero point `z_int` in scale units.
    pub zero: i8,
}

/// A progressively quantized tile: packed INT4/INT2 codes plus per-group
/// integer parameters and the stage-1 f32 scale.
///
/// Codes are stored channel-major (`index = channel · rows + row`), the
/// layout a channel-wise dequantization kernel would stream.
///
/// # Example
///
/// ```
/// use turbo_tensor::Matrix;
/// use turbo_quant::{BitWidth, ProgressiveBlock};
///
/// let tile = Matrix::from_fn(64, 8, |r, c| ((r + 3 * c) % 11) as f32 * 0.1);
/// let pq = ProgressiveBlock::quantize(&tile, BitWidth::Int4, 64);
/// let back = pq.dequantize();
/// assert!(turbo_tensor::max_abs_error(&tile, &back) < 0.05);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressiveBlock {
    rows: usize,
    cols: usize,
    bits: BitWidth,
    group_size: usize,
    packed: PackedCodes,
    params: Vec<GroupParams>,
    outer_scale: f32,
}

impl ProgressiveBlock {
    /// Quantizes an f32 tile: symmetric INT8 (divisor 119) then channel-wise
    /// asymmetric INT4/INT2 in token groups of `group_size`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is `Int8` (stage 2 must narrow the representation)
    /// or `group_size == 0`.
    pub fn quantize(x: &Matrix, bits: BitWidth, group_size: usize) -> Self {
        let q1 = SymQuantized::quantize_with_divisor(x, SYM_INT8_DIVISOR);
        Self::quantize_from_int8(&q1, bits, group_size)
    }

    /// Runs only the second stage on existing INT8 codes — the operation
    /// the enhanced KV buffer performs when it flushes (subsection 3.3).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is `Int8` or `group_size == 0`.
    pub fn quantize_from_int8(q1: &SymQuantized, bits: BitWidth, group_size: usize) -> Self {
        Self::compress(simd_level(), q1, bits, group_size, None)
    }

    /// As [`ProgressiveBlock::quantize_from_int8`], also returning the
    /// block's integer dequantization — equal to
    /// [`ProgressiveBlock::dequantize_to_int8`] of the block — computed in
    /// the same pass from the codes and parameters in hand, with no unpack.
    /// The prefill write uses it to hand each block's decode tile over as
    /// the block is made.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is `Int8` or `group_size == 0`.
    pub fn quantize_and_expand_from_int8(
        q1: &SymQuantized,
        bits: BitWidth,
        group_size: usize,
    ) -> (Self, SymQuantized) {
        let (rows, cols) = (q1.rows(), q1.cols());
        let mut expanded = vec![0i8; rows * cols];
        let block = Self::compress(simd_level(), q1, bits, group_size, Some(&mut expanded));
        let expanded = SymQuantized::from_parts(expanded, q1.scale(), rows, cols);
        (block, expanded)
    }

    /// The stage-2 compress on an explicit arm, writing the expansion
    /// `clamp((q² + z)·s, −127, 127)` row-major into `expanded` when given.
    ///
    /// Tiles at least [`REQUANT_LANES`] channels wide go through the
    /// lane-parallel row-layout pass ([`compress_rows`]) on AVX2; every
    /// other tile, and every tile on the scalar arm, through the
    /// channel-major reference ([`compress_channels`]). Both produce the
    /// same bytes, parameters and expansion.
    pub(crate) fn compress(
        level: SimdLevel,
        q1: &SymQuantized,
        bits: BitWidth,
        group_size: usize,
        expanded: Option<&mut [i8]>,
    ) -> Self {
        assert!(
            bits != BitWidth::Int8,
            "progressive second stage must be narrower than INT8"
        );
        assert!(group_size > 0, "group size must be positive");
        let (rows, cols) = (q1.rows(), q1.cols());
        if let Some(e) = &expanded {
            assert_eq!(e.len(), rows * cols, "expanded output length mismatch");
        }
        let (bytes, params) = if level == SimdLevel::Avx2 && cols >= REQUANT_LANES {
            compress_rows(level, q1, bits, group_size, expanded)
        } else {
            compress_channels(q1, bits, group_size, expanded)
        };
        ProgressiveBlock {
            rows,
            cols,
            bits,
            group_size,
            packed: PackedCodes::from_bytes(bytes, rows * cols, bits),
            params,
            outer_scale: q1.scale(),
        }
    }

    /// Checked variant of [`ProgressiveBlock::quantize_from_int8`]:
    /// validates the stage-1 scale before re-quantizing.
    ///
    /// # Errors
    ///
    /// [`QuantError::ScaleOverflow`] if the INT8 block's scale is not a
    /// positive finite value small enough to dequantize without
    /// overflowing f32.
    ///
    /// # Panics
    ///
    /// Still panics on *caller* bugs: `bits == Int8` or `group_size == 0`.
    pub fn try_quantize_from_int8(
        q1: &SymQuantized,
        bits: BitWidth,
        group_size: usize,
    ) -> Result<Self, QuantError> {
        let s = q1.scale();
        if !(s.is_finite() && s > 0.0 && s <= MAX_OUTER_SCALE) {
            return Err(QuantError::ScaleOverflow);
        }
        Ok(Self::quantize_from_int8(q1, bits, group_size))
    }

    /// Reassembles a block from raw parts (e.g. read back from a
    /// serialized cache).
    ///
    /// # Panics
    ///
    /// Panics if the packed length or parameter count is inconsistent
    /// with the shape, the bits are INT8, or `group_size == 0`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        bits: BitWidth,
        group_size: usize,
        packed: PackedCodes,
        params: Vec<GroupParams>,
        outer_scale: f32,
    ) -> Self {
        assert!(bits != BitWidth::Int8, "resident blocks are INT4/3/2");
        assert!(group_size > 0, "group size must be positive");
        assert_eq!(packed.bits(), bits, "packed width mismatch");
        assert_eq!(packed.len(), rows * cols, "packed length mismatch");
        assert_eq!(
            params.len(),
            cols * groups_per_channel(rows, group_size),
            "group parameter count mismatch"
        );
        assert!(
            outer_scale.is_finite() && outer_scale > 0.0,
            "invalid outer scale"
        );
        Self {
            rows,
            cols,
            bits,
            group_size,
            packed,
            params,
            outer_scale,
        }
    }

    /// The packed second-stage codes.
    pub fn packed(&self) -> &PackedCodes {
        &self.packed
    }

    /// Mutable access to the packed codes — the fault-injection hook for
    /// bit-flip campaigns against resident cache pages. Mutations keep
    /// the block structurally valid (every byte pattern decodes), but the
    /// stored values change; integrity is the checksum layer's job.
    pub fn packed_mut(&mut self) -> &mut PackedCodes {
        &mut self.packed
    }

    /// Integer-only dequantization back to INT8 codes with the original
    /// stage-1 scale: `q̂¹ = clamp((q² + z)·s, −127, 127)`, row-major.
    pub fn dequantize_to_int8(&self) -> SymQuantized {
        let n = self.rows * self.cols;
        let mut channel_major = vec![0i8; n];
        self.dequantize_channel_major_into(&mut channel_major);
        let mut out = vec![0i8; n];
        transpose_into(&channel_major, self.cols, self.rows, &mut out);
        SymQuantized::from_parts(out, self.outer_scale, self.rows, self.cols)
    }

    /// The same integer dequantization as
    /// [`ProgressiveBlock::dequantize_to_int8`], written channel-major
    /// (`out[c · rows + r]`) — the block's packed order. The packed
    /// stream is unpacked a byte at a time, then each (channel, group)
    /// run evaluates its `clamp((q² + z)·s, −127, 127)` in 16-bit lanes.
    /// The stored parameters are used exactly as stored, whatever they
    /// are: `|(q² + z)·s| ≤ 143 · 128` fits an `i16`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `rows · cols` long.
    pub fn dequantize_channel_major_into(&self, out: &mut [i8]) {
        assert_eq!(out.len(), self.rows * self.cols, "output length mismatch");
        if out.is_empty() {
            return;
        }
        let codes = self.unpacked_codes();
        let groups = groups_per_channel(self.rows, self.group_size);
        let runs = out
            .chunks_exact_mut(self.rows)
            .zip(codes.chunks_exact(self.rows))
            .zip(self.params.chunks_exact(groups));
        for ((out, codes), params) in runs {
            expand_channel(codes, params, self.group_size, out);
        }
    }

    /// The same expansion `group` channels at a time: `sink(c, codes)`
    /// receives channels `c..c + codes.len() / rows`, channel-major, from
    /// one reused buffer of `group · rows` bytes — so a caller can place
    /// each group straight into its own layout while it is in L1 (the
    /// decode tile cache writes the GEMM's packed operands this way),
    /// without a channel-major copy of the whole block. The last group
    /// may be short.
    ///
    /// # Panics
    ///
    /// Panics if `group == 0`.
    pub fn dequantize_channels(&self, group: usize, mut sink: impl FnMut(usize, &[i8])) {
        assert!(group > 0, "group must be positive");
        if self.rows * self.cols == 0 {
            return;
        }
        let codes = self.unpacked_codes();
        let groups = groups_per_channel(self.rows, self.group_size);
        let mut buf = vec![0i8; group * self.rows];
        let channels = codes
            .chunks(group * self.rows)
            .zip(self.params.chunks(group * groups));
        for (i, (codes, params)) in channels.enumerate() {
            let out = &mut buf[..codes.len()];
            let runs = out
                .chunks_exact_mut(self.rows)
                .zip(codes.chunks_exact(self.rows))
                .zip(params.chunks_exact(groups));
            for ((out, codes), params) in runs {
                expand_channel(codes, params, self.group_size, out);
            }
            sink(i * group, out);
        }
    }

    /// The second-stage codes, one byte each, channel-major.
    fn unpacked_codes(&self) -> Vec<u8> {
        let mut codes = vec![0u8; self.rows * self.cols];
        unpack_into(self.packed.bytes(), self.bits, &mut codes);
        codes
    }

    /// Full dequantization to f32.
    pub fn dequantize(&self) -> Matrix {
        self.dequantize_to_int8().dequantize()
    }

    /// Tile shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of token rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of channels.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Code bit width (INT4 or INT2).
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// Token-group size of the channel-wise second stage.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Stage-1 f32 scale.
    pub fn outer_scale(&self) -> f32 {
        self.outer_scale
    }

    /// Per-group integer parameters, channel-major.
    pub fn group_params(&self) -> &[GroupParams] {
        &self.params
    }

    /// Physical storage: packed codes + 2 bytes per group (INT8 scale and
    /// zero) + the stage-1 f32 scale.
    pub fn storage_bytes(&self) -> usize {
        self.packed.storage_bytes() + 2 * self.params.len() + std::mem::size_of::<f32>()
    }

    /// Storage of the same tile in FP16, for compression-ratio reporting.
    pub fn fp16_reference_bytes(&self) -> usize {
        2 * self.rows * self.cols
    }

    /// Compression ratio versus FP16 storage.
    pub fn compression_ratio(&self) -> f64 {
        self.fp16_reference_bytes() as f64 / self.storage_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbo_tensor::{max_abs_error, mse, TensorRng};

    /// Integer division rounding half away from zero, matching `f32::round`
    /// on the exact quotients that arise in BPQ — the per-element divide
    /// [`RoundDiv`] replaced, kept as its oracle.
    fn div_round(a: i32, b: i32) -> i32 {
        assert!(b > 0, "divisor must be positive");
        if a >= 0 {
            (a + b / 2) / b
        } else {
            -((-a + b / 2) / b)
        }
    }

    /// The per-element stage-2 compress the fused pass replaced: strided
    /// reads of the row-major tile, a division per code, and packing one
    /// code at a time. Returns the packed bytes and the group parameters.
    fn reference_compress(
        q1: &SymQuantized,
        bits: BitWidth,
        group_size: usize,
    ) -> (Vec<u8>, Vec<GroupParams>) {
        let (rows, cols) = (q1.rows(), q1.cols());
        let groups = rows.div_ceil(group_size);
        let (per_byte, width) = (bits.elems_per_byte(), bits.bits() as usize);
        let mut params = Vec::new();
        let mut bytes = vec![0u8; bits.packed_bytes(rows * cols)];
        let mut idx = 0;
        for c in 0..cols {
            for g in 0..groups {
                let start = g * group_size;
                let len = group_size.min(rows - start);
                let col = || (start..start + len).map(|r| q1.codes()[r * cols + c] as i32);
                let (min, max) = (col().min().unwrap(), col().max().unwrap());
                let denom = (bits.levels() - 1) as i32;
                let s = ((max - min + denom - 1) / denom).max(1);
                let z = div_round(min, s);
                params.push(GroupParams {
                    scale: s as i8,
                    zero: z as i8,
                });
                for v in col() {
                    let q2 = (div_round(v, s) - z).clamp(0, bits.max_code() as i32);
                    bytes[idx / per_byte] |= (q2 as u8) << ((idx % per_byte) * width);
                    idx += 1;
                }
            }
        }
        (bytes, params)
    }

    /// The per-element stage-2 expand the fused pass replaced: one
    /// checked `PackedCodes::get` and one formula evaluation per code,
    /// scattered to row-major.
    fn reference_expand(pq: &ProgressiveBlock) -> Vec<i8> {
        let (rows, cols, gs) = (pq.rows(), pq.cols(), pq.group_size());
        let groups = rows.div_ceil(gs);
        let mut out = vec![0i8; rows * cols];
        let mut idx = 0;
        for c in 0..cols {
            for g in 0..groups {
                let p = pq.group_params()[c * groups + g];
                for r in g * gs..(g * gs + gs).min(rows) {
                    let q2 = pq.packed().get(idx) as i32;
                    idx += 1;
                    out[r * cols + c] =
                        ((q2 + p.zero as i32) * p.scale as i32).clamp(-127, 127) as i8;
                }
            }
        }
        out
    }

    const WIDTHS: [BitWidth; 3] = [BitWidth::Int2, BitWidth::Int3, BitWidth::Int4];
    const GROUP_SIZES: [usize; 5] = [1, 6, 16, 64, 100];
    const CHANNELS: [usize; 5] = [1, 3, 8, 64, 128];

    /// Checks both fused kernels of `pq` against [`reference_expand`].
    fn assert_expand_matches_reference(pq: &ProgressiveBlock, what: &str) {
        let expect = reference_expand(pq);
        let got = pq.dequantize_to_int8();
        assert_eq!(got.codes(), &expect[..], "{what}: row-major expand");
        assert_eq!(got.scale(), pq.outer_scale(), "{what}: scale");
        let (rows, cols) = pq.shape();
        let mut cm = vec![0i8; rows * cols];
        pq.dequantize_channel_major_into(&mut cm);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(
                    cm[c * rows + r],
                    expect[r * cols + c],
                    "{what}: channel-major ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn scale_ceiling_division_is_exact_for_every_gap() {
        for bits in WIDTHS {
            let denom = bits.levels() as usize - 1;
            for gap in 0..=255u32 {
                let expect = gap.div_ceil(denom as u32);
                assert_eq!(
                    div_floor(gap + denom as u32 - 1, denom),
                    expect,
                    "{bits:?} gap {gap}"
                );
            }
        }
    }

    #[test]
    fn round_div_matches_div_round_exhaustively() {
        // Every INT8 numerator (including −128, which `from_parts` admits)
        // against every divisor up to 255 — stage 2's scales stop at
        // ⌈255 / 3⌉ = 85.
        for s in 1..=255 {
            let div = RoundDiv::new(s);
            for a in -128..=127 {
                assert_eq!(div.apply(a) as i32, div_round(a.into(), s), "a={a} s={s}");
            }
        }
    }

    #[test]
    fn fused_compress_and_expand_match_the_per_element_formulas() {
        // The scalar arm is the channel-major reference; on AVX2 tiles at
        // least 16 channels wide take the lane-parallel row layout.
        let mut arms = vec![SimdLevel::Scalar];
        if SimdLevel::Avx2.available() {
            arms.push(SimdLevel::Avx2);
        } else {
            eprintln!("no AVX2 on this machine: the lane-parallel stage 2 goes untested");
        }
        let mut case = 0u64;
        for bits in WIDTHS {
            for rows in 1..=70usize {
                for group_size in GROUP_SIZES {
                    for d in CHANNELS {
                        case += 1;
                        let mut rng = CaseRng(case.wrapping_mul(0x9E37_79B9));
                        // Full i8 range, plus narrow bands so small scales
                        // and constant groups occur too.
                        let band = [255, 40, 3, 0][case as usize % 4];
                        let center = rng.in_range(-128, 127);
                        let codes: Vec<i8> = (0..rows * d)
                            .map(|_| {
                                let v = if band == 255 {
                                    rng.in_range(-128, 127)
                                } else {
                                    center + rng.in_range(-band, band)
                                };
                                v.clamp(-128, 127) as i8
                            })
                            .collect();
                        let q1 = SymQuantized::from_parts(codes, 0.25, rows, d);
                        let what = format!("{bits:?} {rows}x{d} group {group_size}");
                        let pq = ProgressiveBlock::quantize_from_int8(&q1, bits, group_size);
                        let (bytes, params) = reference_compress(&q1, bits, group_size);
                        assert_eq!(pq.packed().bytes(), &bytes[..], "{what}: packed bytes");
                        assert_eq!(pq.group_params(), &params[..], "{what}: params");
                        assert_expand_matches_reference(&pq, &what);
                        // Both arms, directly, with the expansion the
                        // prefill write hands to the tile cache.
                        let expect = reference_expand(&pq);
                        for &level in &arms {
                            let mut expanded = vec![0i8; rows * d];
                            let arm = ProgressiveBlock::compress(
                                level,
                                &q1,
                                bits,
                                group_size,
                                Some(&mut expanded),
                            );
                            assert_eq!(arm, pq, "{what}: {level:?} block");
                            assert_eq!(expanded, expect, "{what}: {level:?} expansion");
                        }
                        let (block, exp) =
                            ProgressiveBlock::quantize_and_expand_from_int8(&q1, bits, group_size);
                        assert_eq!(block, pq, "{what}: expanding block");
                        assert_eq!(exp, pq.dequantize_to_int8(), "{what}: expansion");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_expand_uses_arbitrary_stored_params_as_stored() {
        // Deserialization and bit flips can hand the expand parameters
        // stage 2 never produces: zero or negative scales, extreme zeros.
        let scales = [-128i8, -1, 0, 1, 127];
        let zeros = [-128i8, 127];
        let mut case = 0u64;
        for bits in WIDTHS {
            for rows in 1..=70usize {
                for group_size in GROUP_SIZES {
                    for d in CHANNELS {
                        case += 1;
                        let mut rng = CaseRng(case ^ 0xA5A5_5A5A);
                        let n = rows * d;
                        let bytes: Vec<u8> = (0..bits.packed_bytes(n))
                            .map(|_| rng.next_u64() as u8)
                            .collect();
                        // Unused high bits of a ragged last byte stay
                        // set: the expand must ignore them.
                        let packed = PackedCodes::from_bytes(bytes, n, bits);
                        let params = (0..d * rows.div_ceil(group_size))
                            .map(|_| GroupParams {
                                scale: scales[rng.in_range(0, 4) as usize],
                                zero: zeros[rng.in_range(0, 1) as usize],
                            })
                            .collect();
                        let pq = ProgressiveBlock::from_parts(
                            rows, d, bits, group_size, packed, params, 0.5,
                        );
                        let what = format!("{bits:?} {rows}x{d} group {group_size} from_parts");
                        assert_expand_matches_reference(&pq, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_blocks_compress_and_expand_to_nothing() {
        for (rows, cols) in [(0, 8), (8, 0), (0, 0)] {
            let q1 = SymQuantized::from_parts(vec![], 1.0, rows, cols);
            let pq = ProgressiveBlock::quantize_from_int8(&q1, BitWidth::Int4, 16);
            assert!(pq.group_params().is_empty());
            assert!(pq.packed().is_empty());
            assert_eq!(pq.dequantize_to_int8().codes(), &[] as &[i8]);
        }
    }

    #[test]
    fn div_round_matches_f32_round() {
        for a in -300i32..=300 {
            for b in [1, 2, 3, 7, 15, 16] {
                let expect = (a as f32 / b as f32).round() as i32;
                // f32::round rounds half away from zero, matching div_round.
                assert_eq!(div_round(a, b), expect, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn int4_round_trip_is_tight() {
        let mut rng = TensorRng::new(21);
        let m = rng.normal(64, 32, 0.0, 1.0);
        let pq = ProgressiveBlock::quantize(&m, BitWidth::Int4, 64);
        let back = pq.dequantize();
        // INT4 over an INT8 range of ~238 gives steps of ~16 INT8 units;
        // worst-case error ~ (16/2 + 0.5) * outer_scale.
        let bound = 16.0 * pq.outer_scale();
        assert!(max_abs_error(&m, &back) <= bound);
    }

    #[test]
    fn int2_round_trip_is_coarser_but_bounded() {
        let mut rng = TensorRng::new(22);
        let m = rng.normal(64, 32, 0.0, 1.0);
        let pq = ProgressiveBlock::quantize(&m, BitWidth::Int2, 64);
        let e2 = mse(&m, &pq.dequantize());
        let pq4 = ProgressiveBlock::quantize(&m, BitWidth::Int4, 64);
        let e4 = mse(&m, &pq4.dequantize());
        assert!(e4 < e2, "INT4 ({e4}) must beat INT2 ({e2})");
        assert!(max_abs_error(&m, &pq.dequantize()) <= 44.0 * pq.outer_scale());
    }

    #[test]
    fn constant_tile_round_trips_exactly_through_int8() {
        let m = Matrix::filled(16, 4, 2.5);
        let pq = ProgressiveBlock::quantize(&m, BitWidth::Int4, 8);
        let q1 = pq.dequantize_to_int8();
        // All codes identical -> reconstruction equals stage-1 value.
        let back = q1.dequantize();
        for &v in back.as_slice() {
            assert!((v - 2.5).abs() < 2.5 / SYM_INT8_DIVISOR);
        }
    }

    #[test]
    fn dequantize_to_int8_is_integer_consistent() {
        // Every reconstructed INT8 code must equal (q2 + z) * s exactly.
        let mut rng = TensorRng::new(23);
        let m = rng.normal(32, 8, 0.0, 3.0);
        let pq = ProgressiveBlock::quantize(&m, BitWidth::Int4, 16);
        let q1 = pq.dequantize_to_int8();
        let groups = 32usize.div_ceil(16);
        let mut idx = 0;
        for c in 0..8 {
            for g in 0..groups {
                let p = pq.group_params()[c * groups + g];
                for r in g * 16..(g * 16 + 16) {
                    let q2 = pq.packed.get(idx) as i32;
                    idx += 1;
                    let expect = ((q2 + p.zero as i32) * p.scale as i32).clamp(-127, 127);
                    assert_eq!(q1.codes()[r * 8 + c] as i32, expect);
                }
            }
        }
    }

    #[test]
    fn channel_outliers_do_not_pollute_other_channels() {
        let mut rng = TensorRng::new(24);
        let m = rng.normal_with_channel_outliers(64, 16, 1.0, &[5], 40.0);
        let pq = ProgressiveBlock::quantize(&m, BitWidth::Int4, 64);
        let back = pq.dequantize();
        // Error on a non-outlier channel should reflect that channel's own
        // range, not the outlier channel's. Stage 1 is per-tile so the outer
        // scale is inflated; the channel-wise stage-2 params keep per-channel
        // code resolution. The residual error must stay well below the
        // outlier channel's magnitude.
        let mut err_nonoutlier = 0.0f32;
        for r in 0..64 {
            for c in 0..16 {
                if c != 5 {
                    err_nonoutlier = err_nonoutlier.max((m.get(r, c) - back.get(r, c)).abs());
                }
            }
        }
        assert!(err_nonoutlier < 4.0, "non-outlier error {err_nonoutlier}");
    }

    #[test]
    fn ragged_rows_and_groups() {
        let mut rng = TensorRng::new(25);
        let m = rng.normal(37, 5, 0.0, 1.0); // 37 rows, group 16 -> 3 ragged groups
        let pq = ProgressiveBlock::quantize(&m, BitWidth::Int4, 16);
        assert_eq!(pq.shape(), (37, 5));
        let back = pq.dequantize();
        assert!(max_abs_error(&m, &back) <= 16.0 * pq.outer_scale());
    }

    #[test]
    fn storage_is_compressed_vs_fp16() {
        let mut rng = TensorRng::new(26);
        let m = rng.normal(128, 128, 0.0, 1.0);
        let pq4 = ProgressiveBlock::quantize(&m, BitWidth::Int4, 64);
        let pq2 = ProgressiveBlock::quantize(&m, BitWidth::Int2, 64);
        assert!(pq4.compression_ratio() > 3.5, "{}", pq4.compression_ratio());
        assert!(pq2.compression_ratio() > 6.5, "{}", pq2.compression_ratio());
    }

    #[test]
    fn progressive_beats_or_matches_direct_int4_with_outliers() {
        // With per-channel outliers, channelwise progressive INT4 should be
        // comparable to direct channelwise INT4 and much better than
        // per-tile direct INT4.
        let mut rng = TensorRng::new(27);
        let m = rng.normal_with_channel_outliers(64, 32, 1.0, &[3, 19], 25.0);
        let pq = ProgressiveBlock::quantize(&m, BitWidth::Int4, 64);
        let e_pq = mse(&m, &pq.dequantize());
        // Direct per-tile (single group spanning everything) INT4:
        let flat = crate::asymmetric::AsymQuantized::quantize(m.as_slice(), BitWidth::Int4);
        let direct = Matrix::from_vec(64, 32, flat.dequantize());
        let e_direct = mse(&m, &direct);
        assert!(e_pq < e_direct / 2.0, "pq {e_pq} vs direct {e_direct}");
    }

    #[test]
    #[should_panic(expected = "narrower than INT8")]
    fn int8_second_stage_panics() {
        let m = Matrix::zeros(4, 4);
        ProgressiveBlock::quantize(&m, BitWidth::Int8, 4);
    }

    #[test]
    fn try_quantize_detects_scale_overflow() {
        // max|x| near f32::MAX makes the stage-1 scale too large to
        // dequantize: 127 * scale would overflow to Inf.
        let q1 = SymQuantized::quantize(&Matrix::filled(8, 4, f32::MAX));
        assert_eq!(
            ProgressiveBlock::try_quantize_from_int8(&q1, BitWidth::Int4, 8),
            Err(QuantError::ScaleOverflow)
        );
    }

    #[test]
    fn try_quantize_accepts_ordinary_tiles() {
        let mut rng = TensorRng::new(28);
        let m = rng.normal(32, 8, 0.0, 2.0);
        let q1 = SymQuantized::quantize(&m);
        let pq = ProgressiveBlock::try_quantize_from_int8(&q1, BitWidth::Int4, 16).unwrap();
        assert_eq!(pq, ProgressiveBlock::quantize(&m, BitWidth::Int4, 16));
    }

    /// Tiny deterministic generator for the property tests below (keeps
    /// the crate dependency-free; splitmix64 core).
    struct CaseRng(u64);

    impl CaseRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi]` inclusive.
        fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
        }
    }

    /// Randomized round-trip property: for arbitrary INT8 tiles, the
    /// stage-2 re-quantize → dequantize pipeline (a) never panics in
    /// debug builds — i.e. the integer scale/zero always fit their `i8`
    /// storage — and (b) reconstructs every code to within `s/2` of the
    /// original, `s` being that group's integer scale (`2·|v − v̂| ≤ s`).
    /// 576 seeded cases spanning INT2/INT3/INT4, ragged shapes, ragged
    /// groups, and adversarial value patterns (full-range extremes,
    /// near-constant, alternating ±127).
    #[test]
    fn randomized_int8_round_trip_never_overflows_and_stays_within_half_scale() {
        const CASES: usize = 576;
        for case in 0..CASES {
            let mut rng = CaseRng(0xC0FFEE ^ (case as u64).wrapping_mul(0x5851_F42D_4C95_7F2D));
            let rows = rng.in_range(1, 40) as usize;
            let cols = rng.in_range(1, 9) as usize;
            let group_size = rng.in_range(1, rows as i64 + 4) as usize;
            let bits = match case % 3 {
                0 => BitWidth::Int2,
                1 => BitWidth::Int3,
                _ => BitWidth::Int4,
            };

            let codes: Vec<i8> = match case % 4 {
                // Uniform over the full symmetric INT8 range.
                0 => (0..rows * cols)
                    .map(|_| rng.in_range(-127, 127) as i8)
                    .collect(),
                // Narrow band around a random center.
                1 => {
                    let center = rng.in_range(-100, 100);
                    let spread = rng.in_range(0, 12);
                    (0..rows * cols)
                        .map(|_| {
                            rng.in_range(center - spread, center + spread).clamp(-127, 127) as i8
                        })
                        .collect()
                }
                // Alternating extremes: the widest possible gap (254), the
                // worst case for the ceiling-division scale.
                2 => (0..rows * cols)
                    .map(|i| if i % 2 == 0 { -127i8 } else { 127 })
                    .collect(),
                // Constant tile at a random value (gap 0, scale floor 1).
                _ => {
                    let v = rng.in_range(-127, 127) as i8;
                    vec![v; rows * cols]
                }
            };

            let q1 = SymQuantized::from_parts(codes.clone(), 0.01, rows, cols);
            // (a) Must not panic: in debug builds an i8 overflow in the
            // `s as i8` / `z as i8` stores would abort here.
            let pq = ProgressiveBlock::quantize_from_int8(&q1, bits, group_size);
            let back = pq.dequantize_to_int8();

            let groups = rows.div_ceil(group_size);
            for (gi, p) in pq.group_params().iter().enumerate() {
                assert!(
                    p.scale >= 1,
                    "case {case}: group {gi} scale {} not positive",
                    p.scale
                );
            }
            // (b) Per-code reconstruction error ≤ s/2 (integer check).
            for r in 0..rows {
                for c in 0..cols {
                    let g = r / group_size;
                    let s = pq.group_params()[c * groups + g].scale as i32;
                    let v = codes[r * cols + c] as i32;
                    let v_hat = back.codes()[r * cols + c] as i32;
                    assert!(
                        2 * (v - v_hat).abs() <= s,
                        "case {case} ({bits:?}, {rows}x{cols}, group {group_size}): \
                         code at ({r},{c}) was {v}, came back {v_hat}, scale {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_range_extremes_saturate_scale_within_i8() {
        // gap = 254: the largest integer scale each width can produce.
        // ceil(254/3) = 85 (INT2), ceil(254/7) = 37 (INT3),
        // ceil(254/15) = 17 (INT4) — all comfortably inside i8.
        for (bits, expect) in [
            (BitWidth::Int2, 85i8),
            (BitWidth::Int3, 37),
            (BitWidth::Int4, 17),
        ] {
            let codes: Vec<i8> = (0..32).map(|i| if i % 2 == 0 { -127 } else { 127 }).collect();
            let q1 = SymQuantized::from_parts(codes, 1.0, 32, 1);
            let pq = ProgressiveBlock::quantize_from_int8(&q1, bits, 32);
            assert_eq!(pq.group_params().len(), 1);
            assert_eq!(pq.group_params()[0].scale, expect, "{bits:?}");
        }
    }

    #[test]
    fn packed_mut_round_trips_through_bit_flip() {
        let mut rng = TensorRng::new(29);
        let m = rng.normal(16, 4, 0.0, 1.0);
        let mut pq = ProgressiveBlock::quantize(&m, BitWidth::Int4, 16);
        let clean = pq.dequantize();
        pq.packed_mut().bytes_mut()[0] ^= 0x0F;
        // Still decodes without panicking; values differ.
        assert_ne!(pq.dequantize(), clean);
    }
}
